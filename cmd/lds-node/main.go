// Command lds-node runs LDS servers over TCP for cmd/lds-gateway's TCP
// shards: one process per machine, identified by a topology-wide node id,
// hosting its slice of every LDS group a gateway provisions onto it via
// the registration handshake (internal/nodehost). No address book is
// needed — topology flows through the handshake:
//
//	lds-node -node 1 -listen :7101
//	lds-node -node 2 -listen :7101   # on another machine
//	lds-node -node 3 -listen :7101   # on another machine
//	lds-gateway -topology cluster.json -listen :8080
//
// where cluster.json lists these nodes under a "tcp" shard (the format is
// documented in docs/OPERATIONS.md). The process prints one line per
// provisioning event; on restart it comes back empty and is restored by
// POST /v1/reprovision on the gateway.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"github.com/lds-storage/lds/internal/nodehost"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		nodeID = flag.Int("node", -1, "topology-wide node id (>= 0, required)")
		listen = flag.String("listen", "", "listen address, e.g. :7100")
	)
	flag.Parse()
	if *listen == "" {
		flag.Usage()
		return fmt.Errorf("lds-node: -listen is required")
	}
	if *nodeID < 0 {
		flag.Usage()
		return fmt.Errorf("lds-node: -node is required")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	host, err := nodehost.New(*listen, int32(*nodeID), nodehost.Options{Log: log.Printf})
	if err != nil {
		return err
	}
	defer host.Close()
	// The "listening on" line is parsed by tooling (and the e2e test)
	// to learn the bound port when -listen used ":0"; keep it stable.
	log.Printf("lds-node: host %d listening on %s", host.NodeID(), host.Addr())
	<-sig
	log.Printf("lds-node: host %d shutting down (%d groups, %d servers)",
		host.NodeID(), host.Groups(), host.Servers())
	return nil
}
