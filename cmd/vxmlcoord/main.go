// Command vxmlcoord serves the public /v1 search API over a cluster of
// vxmlnode processes: it owns the cluster-global state (document registry
// and placement, generation vector, view registry, query-result cache),
// routes mutations to each partition's primary, and answers searches by
// scatter-gathering over the nodes — results are byte-identical to a
// single-process vxmlserve holding the same corpus.
//
// Topology comes from repeated -slot flags, one per corpus partition, each
// listing the slot's member base URLs comma-separated with the primary
// first and read replicas after:
//
//	vxmlcoord -addr :8344 \
//	  -slot http://localhost:8351 \
//	  -slot http://localhost:8352,http://localhost:8362
//
// Document names matching a -partition pattern (default part-*) hash across
// slots; all other documents are broadcast to every slot, so views may join
// partitioned documents against broadcast ones. Nodes must start empty (or
// be bootstrapped consistently via vxmlnode -bootstrap-from); the
// coordinator assumes generation zero everywhere at startup.
//
// Degraded mode: when a slot stays unreachable through failover and
// retries, searches return the surviving partitions' results with HTTP 502
// and per-node status under stats.nodes — a lost node is always an explicit
// error, never a silently smaller result set. -pprof addr serves the
// runtime profiles on a separate listener. The process drains in-flight
// requests and exits cleanly on SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vxml/internal/cluster"
	"vxml/internal/inex"
	"vxml/internal/server"
)

type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	var slots stringList
	var partitions stringList
	flag.Var(&slots, "slot", "one corpus partition's member base URLs, comma-separated, primary first (repeatable; at least one required)")
	flag.Var(&partitions, "partition", "document-name pattern that hash-partitions across slots (repeatable; default part-*); non-matching names broadcast to every slot")
	addr := flag.String("addr", ":8344", "listen address")
	timeout := flag.Duration("timeout", 30*time.Second, "per-node RPC timeout")
	retries := flag.Int("retries", 1, "extra attempts per member after a transport failure")
	demo := flag.Bool("demo", false, "load the generated books/reviews corpus through the cluster and register a 'demo' view")
	readonly := flag.Bool("readonly", false, "disable the corpus-mutating routes (POST/PUT/DELETE under /documents answer 403)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof under /debug/pprof/ on this separate address, e.g. 127.0.0.1:6061 (off when empty; never on the public listener)")
	shutdownGrace := flag.Duration("shutdown-grace", 10*time.Second, "maximum time to drain in-flight requests on shutdown")
	flag.Parse()

	cfg := cluster.Config{Timeout: *timeout, Retries: *retries}
	for _, s := range slots {
		var members []string
		for _, m := range strings.Split(s, ",") {
			if m = strings.TrimSpace(m); m != "" {
				members = append(members, strings.TrimRight(m, "/"))
			}
		}
		cfg.Slots = append(cfg.Slots, members)
	}
	if len(partitions) > 0 {
		cfg.Partition = partitions
	}
	coord, err := cluster.NewCoordinator(cfg)
	if err != nil {
		log.Fatalf("configuring cluster: %v (give at least one -slot URL)", err)
	}

	srv := server.NewBackend(coord)
	server.ServePprof(*pprofAddr)
	srv.SetReadOnly(*readonly)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *demo {
		booksXML, reviewsXML := inex.DemoCorpus()
		if err := coord.AddDocument(ctx, "books.xml", booksXML); err != nil {
			log.Fatalf("loading demo corpus: %v", err)
		}
		if err := coord.AddDocument(ctx, "reviews.xml", reviewsXML); err != nil {
			log.Fatalf("loading demo corpus: %v", err)
		}
		if err := srv.DefineView("demo", inex.DemoView); err != nil {
			log.Fatalf("registering demo view: %v", err)
		}
	}

	server.Serve(ctx, *addr, srv.Handler(), *shutdownGrace,
		fmt.Sprintf("vxmlcoord listening on %s (%d slot(s))", *addr, len(cfg.Slots)))
}
