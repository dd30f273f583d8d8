// Read failover, route by route: the scatter route (rank everywhere, then
// materialize the winners) and the single-node route (the whole search on
// one member) must fail over across a slot's members by the same rule —
// member order, outcome records, stop at a newer generation — so one table
// of member scripts runs against both.
package cluster

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"vxml"
	"vxml/internal/testkit"
)

// broadcastOnlyView references only a broadcast document, so the
// coordinator serves it whole on one node.
const broadcastOnlyView = `for $u in fn:doc(authors.xml)/authors//author
	return <a>{$u/name}, {$u/affil}</a>`

// Member behaviours a script can switch the primary to.
const (
	memberLive int32 = iota
	memberHangs
	memberFailsMaterialize
)

// failoverFixture is one slot of two members — a primary the script can
// break and a replica it can bootstrap — behind a coordinator, plus a
// single-process oracle holding the same corpus.
type failoverFixture struct {
	coord      *Coordinator
	db         *vxml.Database
	view       *vxml.View
	primary    *Node
	primarySrv *httptest.Server
	replicaSrv *httptest.Server
	replica    atomic.Pointer[Node]
	mode       atomic.Int32
	// hung counts the requests the primary received while hanging.
	hung atomic.Int32
}

func newFailoverFixture(t *testing.T, view string, timeout time.Duration) *failoverFixture {
	t.Helper()
	f := &failoverFixture{primary: NewNode()}
	f.replica.Store(NewNode())
	release := make(chan struct{})
	f.primarySrv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch f.mode.Load() {
		case memberHangs:
			f.hung.Add(1)
			select {
			case <-release:
			case <-r.Context().Done():
			}
			return
		case memberFailsMaterialize:
			if r.URL.Path == pathPrefix+"/materialize" {
				http.Error(w, `{"error":"injected failure","code":"internal"}`, http.StatusInternalServerError)
				return
			}
		}
		f.primary.Handler().ServeHTTP(w, r)
	}))
	f.replicaSrv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.replica.Load().Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(f.replicaSrv.Close)
	t.Cleanup(f.primarySrv.Close)
	t.Cleanup(func() { close(release) }) // runs first: unblock hanging handlers before Close waits on them

	coord, err := NewCoordinator(Config{
		Slots:   [][]string{{f.primarySrv.URL, f.replicaSrv.URL}},
		Timeout: timeout,
		Retries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.coord = coord
	f.db = vxml.Open()
	ctx := context.Background()
	testkit.FillEqCorpus(t, rand.New(rand.NewSource(71)), 8, addBoth{f.db, coord})
	if f.view, err = f.db.DefineView(view); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.DefineView(ctx, "v", view); err != nil {
		t.Fatal(err)
	}
	return f
}

// addBoth adds every generated document to the oracle and the coordinator.
type addBoth struct {
	db    *vxml.Database
	coord *Coordinator
}

func (t addBoth) Add(name, xml string) error {
	if err := t.db.Add(name, xml); err != nil {
		return err
	}
	return t.coord.AddDocument(context.Background(), name, xml)
}

// bootstrapReplica makes the replica a current copy of the primary.
func (f *failoverFixture) bootstrapReplica(t *testing.T) {
	t.Helper()
	boot, err := NewNodeFromSnapshot(context.Background(), nil, f.primarySrv.URL)
	if err != nil {
		t.Fatalf("bootstrapping the replica: %v", err)
	}
	f.replica.Store(boot)
}

var (
	failoverKeywords = []string{"copper", "inst"}
	failoverOptions  = vxml.Options{Disjunctive: true}
)

func (f *failoverFixture) search() ([]vxml.Result, *vxml.Stats, error) {
	opts := failoverOptions
	return f.coord.Search(context.Background(), "v", failoverKeywords, &opts)
}

// mustMatchOracle asserts a clean answer byte-identical to the oracle's.
func (f *failoverFixture) mustMatchOracle(t *testing.T, got []vxml.Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("search did not fail over: %v", err)
	}
	opts := failoverOptions
	want, _, werr := f.db.Search(f.view, failoverKeywords, &opts)
	if werr != nil {
		t.Fatal(werr)
	}
	if len(want) == 0 {
		t.Fatal("the oracle found nothing; the failover has nothing to show")
	}
	testkit.MustEqualResults(t, "failover vs oracle", want, got)
}

// stateOf returns the recorded outcome of the member at url.
func stateOf(stats *vxml.Stats, url string) string {
	if stats == nil {
		return ""
	}
	for _, n := range stats.Nodes {
		if n.URL == url {
			return n.State
		}
	}
	return ""
}

func TestEveryReadRouteFailsOverAlike(t *testing.T) {
	routes := []struct {
		name, view string
		scatter    bool
	}{
		{"scatter", testkit.EqViews[0], true},
		{"single", broadcastOnlyView, false},
	}
	for _, rt := range routes {
		t.Run(rt.name, func(t *testing.T) {
			// The primary is down — its listener closed, or hanging past the
			// per-RPC timeout — and the replica is live and current.
			for _, down := range []string{"closed", "hangs"} {
				t.Run("primary-"+down, func(t *testing.T) {
					f := newFailoverFixture(t, rt.view, 250*time.Millisecond)
					f.bootstrapReplica(t)
					if down == "closed" {
						f.primarySrv.Close()
					} else {
						f.mode.Store(memberHangs)
					}
					got, stats, err := f.search()
					f.mustMatchOracle(t, got, err)
					if p, r := stateOf(stats, f.primarySrv.URL), stateOf(stats, f.replicaSrv.URL); p != "failed" || r != "ok" {
						t.Fatalf("primary %q, replica %q; want failed, ok: %+v", p, r, stats.Nodes)
					}
				})
			}

			if rt.scatter {
				// The primary ranks but cannot materialize: the replica
				// materializes the winners the primary ranked.
				t.Run("materialize-fails", func(t *testing.T) {
					f := newFailoverFixture(t, rt.view, 5*time.Second)
					f.bootstrapReplica(t)
					f.mode.Store(memberFailsMaterialize)
					got, stats, err := f.search()
					f.mustMatchOracle(t, got, err)
					if p, r := stateOf(stats, f.primarySrv.URL), stateOf(stats, f.replicaSrv.URL); p != "failed" || r != "ok" {
						t.Fatalf("primary %q, replica %q; want failed, ok: %+v", p, r, stats.Nodes)
					}
				})
			}

			// The replica that answered for a hanging primary is tried first
			// by the next read: the hang costs one per-RPC timeout, not one
			// per search.
			t.Run("sticky-member", func(t *testing.T) {
				f := newFailoverFixture(t, rt.view, 250*time.Millisecond)
				f.bootstrapReplica(t)
				f.mode.Store(memberHangs)
				for i := 0; i < 2; i++ {
					got, stats, err := f.search()
					f.mustMatchOracle(t, got, err)
					want := [2]string{"failed", "ok"}
					if i > 0 {
						want[0] = "skipped"
					}
					if p, r := stateOf(stats, f.primarySrv.URL), stateOf(stats, f.replicaSrv.URL); p != want[0] || r != want[1] {
						t.Fatalf("search %d: primary %q, replica %q; want %s, %s: %+v", i+1, p, r, want[0], want[1], stats.Nodes)
					}
				}
				if n := f.hung.Load(); n != 1 {
					t.Fatalf("the hanging primary received %d requests over two searches, want 1", n)
				}
			})

			// The only live member is one generation behind: it must not
			// answer from its older corpus.
			t.Run("only-lagging-member-live", func(t *testing.T) {
				f := newFailoverFixture(t, rt.view, 5*time.Second)
				f.bootstrapReplica(t)
				if err := f.coord.AddDocument(context.Background(), "part-99.xml", rpcTestDoc); err != nil {
					t.Fatal(err)
				}
				if lag, cur := f.replica.Load().Gen(), f.primary.Gen(); lag+1 != cur {
					t.Fatalf("replica at generation %d, primary at %d; want one behind", lag, cur)
				}
				f.primarySrv.Close()
				got, stats, err := f.search()
				if !errors.Is(err, vxml.ErrPartialCluster) {
					t.Fatalf("search with only a lagging member: err=%v (%d results), want ErrPartialCluster", err, len(got))
				}
				if r := stateOf(stats, f.replicaSrv.URL); r != "failed" {
					t.Fatalf("lagging replica recorded %q, want failed: %+v", r, stats)
				}
			})

			// A member moved to a newer generation behind the coordinator's
			// back: every retry sees it, so the search ends stale.
			t.Run("member-ahead", func(t *testing.T) {
				f := newFailoverFixture(t, rt.view, 5*time.Second)
				f.bootstrapReplica(t)
				if code := postNode(t, f.primarySrv.URL, "/documents", documentRequest{
					Schema: Schema, Op: "delete", Name: "absent.xml", SetGen: f.primary.Gen() + 1,
				}, nil); code != http.StatusOK {
					t.Fatalf("mutating the primary directly: %d", code)
				}
				_, _, err := f.search()
				if !errors.Is(err, ErrStaleGeneration) {
					t.Fatalf("search over a member ahead of the coordinator: %v, want ErrStaleGeneration", err)
				}
			})
		})
	}
}
