// Database-level lifecycle semantics: cache invalidation on Replace and
// Delete, the error taxonomy, and the ctx forms' cancellation pre-flight.
package vxml_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"vxml"
	"vxml/internal/testkit"
)

const mutDocV1 = `<books><article><fm><tl>copper quartz v1</tl><au>author0</au><yr>1999</yr></fm><bdy>copper quartz marker-v1</bdy></article></books>`
const mutDocV2 = `<books><article><fm><tl>copper quartz v2</tl><au>author0</au><yr>1999</yr></fm><bdy>copper quartz marker-v2</bdy></article></books>`

func TestReplaceInvalidatesCache(t *testing.T) {
	db := vxml.Open()
	db.MustAdd("part-00.xml", mutDocV1)
	v, err := db.DefineView(`for $a in fn:collection("part-*")/books//article return <art>{$a/bdy}</art>`)
	if err != nil {
		t.Fatal(err)
	}
	opts := &vxml.Options{Cache: true}
	kws := []string{"copper"}

	first, _, err := db.Search(v, kws, opts)
	if err != nil {
		t.Fatal(err)
	}
	hit, stats, err := db.Search(v, kws, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PlanSource != "cache_hit" {
		t.Fatal("repeat search did not hit the cache")
	}
	testkit.MustEqualResults(t, "cache hit", hit, first)

	if err := db.Replace("part-00.xml", mutDocV2); err != nil {
		t.Fatal(err)
	}
	after, stats, err := db.Search(v, kws, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PlanSource == "cache_hit" {
		t.Error("search after Replace served from the pre-mutation cache")
	}
	if len(after) != 1 || !strings.Contains(after[0].XML, "marker-v2") || strings.Contains(after[0].XML, "marker-v1") {
		t.Errorf("post-replace results stale: %+v", after)
	}

	if err := db.Delete("part-00.xml"); err != nil {
		t.Fatal(err)
	}
	gone, stats, err := db.Search(v, kws, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PlanSource == "cache_hit" {
		t.Error("search after Delete served from the pre-mutation cache")
	}
	if len(gone) != 0 {
		t.Errorf("post-delete results = %d, want 0", len(gone))
	}
	// Three mutations (add counts too) → three generation bumps.
	if got := db.CacheStats().Invalidations; got != 3 {
		t.Errorf("cache invalidations = %d, want 3", got)
	}
	if got := db.ShardStats(); len(got) > 0 {
		total := 0
		for _, sh := range got {
			total += sh.Mutations
		}
		if total != 2 {
			t.Errorf("shard mutation counters sum to %d, want 2", total)
		}
	}
}

func TestMutationErrorTaxonomy(t *testing.T) {
	db := vxml.Open()
	db.MustAdd("a.xml", "<a><t>x</t></a>")
	if err := db.Replace("missing.xml", "<a/>"); !errors.Is(err, vxml.ErrUnknownDocument) {
		t.Errorf("Replace unknown: %v, want vxml.ErrUnknownDocument", err)
	}
	if err := db.Delete("missing.xml"); !errors.Is(err, vxml.ErrUnknownDocument) {
		t.Errorf("Delete unknown: %v, want vxml.ErrUnknownDocument", err)
	}
	if err := db.Replace("a.xml", "<unclosed"); err == nil {
		t.Error("Replace with malformed XML should fail")
	}
	// A failed replace must not damage the registered document.
	v, err := db.DefineView(`for $x in fn:doc(a.xml)/a return $x`)
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := db.Search(v, []string{"x"}, nil)
	if err != nil || len(results) != 1 {
		t.Errorf("document damaged by failed replace: %d results, %v", len(results), err)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := db.ReplaceContext(canceled, "a.xml", "<a><t>y</t></a>"); !errors.Is(err, context.Canceled) {
		t.Errorf("ReplaceContext pre-flight: %v", err)
	}
	if err := db.DeleteContext(canceled, "a.xml"); !errors.Is(err, context.Canceled) {
		t.Errorf("DeleteContext pre-flight: %v", err)
	}
	// The dead ctx stopped both mutations before they touched the corpus.
	if names := db.DocumentNames(); len(names) != 1 || names[0] != "a.xml" {
		t.Errorf("corpus changed by canceled mutation: %v", names)
	}
}
