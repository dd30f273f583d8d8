// The soak oracle: a single-threaded vxml.Database that mirrors every
// mutation the churner sends to the server, so a spot check can compare a
// live HTTP response byte-for-byte against what a sequential,
// single-client execution of the same corpus state must produce. Any
// divergence is a serving bug — cache staleness, a torn mutation, a
// tombstone swept too early — that microbenchmarks cannot see.
package loadkit

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"vxml"
)

// Oracle wraps the mirror Database. It is confined to the churner
// goroutine: mutations and spot checks happen between churn ops, never
// concurrently, which is exactly what makes its answers a ground truth.
type Oracle struct {
	db    *vxml.Database
	views map[string]*vxml.View
}

// NewOracle builds the mirror from the spec's corpus and views — the same
// expansion SelfServe applies.
func NewOracle(spec *Spec) (*Oracle, error) {
	db, err := buildDatabase(spec)
	if err != nil {
		return nil, err
	}
	o := &Oracle{db: db, views: map[string]*vxml.View{}}
	for _, v := range spec.Views {
		view, err := db.DefineView(v.XQuery)
		if err != nil {
			return nil, fmt.Errorf("loadkit: oracle view %s: %w", v.Name, err)
		}
		o.views[v.Name] = view
	}
	return o, nil
}

// Replace mirrors a replace the server acknowledged.
func (o *Oracle) Replace(name, xml string) error { return o.db.Replace(name, xml) }

// Delete mirrors a delete the server acknowledged.
func (o *Oracle) Delete(name string) error { return o.db.Delete(name) }

// Add mirrors an add the server acknowledged.
func (o *Oracle) Add(name, xml string) error { return o.db.Add(name, xml) }

// Search runs the template sequentially (Parallelism 1, no cache) and
// returns each result marshaled as it is: the server encodes vxml.Result
// unchanged, and encoding/json's struct-field order and sorted map keys
// make the bytes deterministic.
func (o *Oracle) Search(t RequestTemplate) ([][]byte, error) {
	view := o.views[t.View]
	if view == nil {
		return nil, fmt.Errorf("loadkit: oracle has no view %q", t.View)
	}
	opts := &vxml.Options{
		TopK:        t.TopK,
		Offset:      t.Offset,
		Disjunctive: t.Disjunctive,
		Approach:    vxml.Efficient,
		Parallelism: 1,
		Cache:       false,
	}
	results, _, err := o.db.SearchContext(context.Background(), view, t.Keywords, opts)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(results))
	for i, r := range results {
		line, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		out[i] = line
	}
	return out, nil
}

// Compare checks a server response (raw per-result JSON) against the
// oracle's answer for the same template, returning a description of the
// first divergence or "" when byte-identical.
func (o *Oracle) Compare(t RequestTemplate, got []json.RawMessage) (string, error) {
	want, err := o.Search(t)
	if err != nil {
		return "", fmt.Errorf("loadkit: oracle search: %w", err)
	}
	if len(got) != len(want) {
		return fmt.Sprintf("result count diverged: server %d, oracle %d", len(got), len(want)), nil
	}
	for i := range want {
		if !bytes.Equal(bytes.TrimSpace(got[i]), want[i]) {
			return fmt.Sprintf("result %d diverged:\nserver: %s\noracle: %s", i, got[i], want[i]), nil
		}
	}
	return "", nil
}
