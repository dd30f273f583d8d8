// Command vxmlnode runs one cluster member: a full search engine over its
// slice of the corpus, speaking the vxmlcluster/2 RPC protocol (rank,
// materialize, search, mutations, snapshot) under /cluster/v1. Nodes hold
// no cluster-global state — document placement, generation vectors and the
// view registry live on the coordinator (vxmlcoord), which is also the only
// intended client of this process.
//
// A node starts empty at generation zero, or bootstraps as a read replica
// from another node's consistent snapshot with -bootstrap-from; -pprof addr
// serves the runtime profiles on a separate listener. The process drains
// in-flight requests and exits cleanly on SIGINT/SIGTERM.
//
// Examples:
//
//	vxmlnode -addr :8351
//	vxmlnode -addr :8361 -bootstrap-from http://localhost:8351
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os/signal"
	"syscall"
	"time"

	"vxml/internal/cluster"
	"vxml/internal/server"
)

func main() {
	addr := flag.String("addr", ":8351", "listen address")
	bootstrapFrom := flag.String("bootstrap-from", "", "base URL of a node to bootstrap this one from (snapshot shipping; replica starts at the snapshot's generation)")
	diskDir := flag.String("disk", "", "keep this node's corpus slice in a disk-resident store at this directory (created if absent; survives restarts)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof under /debug/pprof/ on this separate address, e.g. 127.0.0.1:6061 (off when empty; never on the public listener)")
	shutdownGrace := flag.Duration("shutdown-grace", 10*time.Second, "maximum time to drain in-flight requests on shutdown")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var node *cluster.Node
	switch {
	case *bootstrapFrom != "":
		if *diskDir != "" {
			log.Fatalf("-disk and -bootstrap-from are mutually exclusive: a bootstrap adopts the primary's backend from the snapshot itself")
		}
		n, err := cluster.NewNodeFromSnapshot(ctx, nil, *bootstrapFrom)
		if err != nil {
			log.Fatalf("bootstrapping from %s: %v", *bootstrapFrom, err)
		}
		log.Printf("bootstrapped %d document(s) at generation %d from %s", n.Documents(), n.Gen(), *bootstrapFrom)
		node = n
	case *diskDir != "":
		n, err := cluster.NewDiskNode(*diskDir)
		if err != nil {
			log.Fatalf("opening disk corpus %s: %v", *diskDir, err)
		}
		log.Printf("disk corpus %s: %d document(s)", *diskDir, n.Documents())
		node = n
	default:
		node = cluster.NewNode()
	}
	defer node.Close()
	server.ServePprof(*pprofAddr)

	server.Serve(ctx, *addr, node.Handler(), *shutdownGrace,
		fmt.Sprintf("vxmlnode listening on %s (%d documents, generation %d)", *addr, node.Documents(), node.Gen()))
}
