// Command lds-node runs LDS servers over TCP. It has two modes.
//
// # Group-host mode (-node)
//
// The deployment mode behind cmd/lds-gateway's TCP shards: one process
// per machine, identified by a topology-wide node id, hosting its slice
// of every LDS group a gateway provisions onto it via the registration
// handshake (internal/nodehost). No address book is needed — topology
// flows through the handshake:
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
//
// # Static single-server mode (-id)
//
// The original deployment form: one process runs exactly one L1 or L2
// server of a single hand-wired cluster, with every peer address in a
// static book. Useful with cmd/lds-cli for protocol experiments:
//
//	peers='L1/0=:7100,L1/1=:7101,L1/2=:7102,L1/3=:7103,L2/0=:7200,L2/1=:7201,L2/2=:7202,L2/3=:7203,L2/4=:7204'
//	lds-node -id L1/0 -listen :7100 -peers "$peers" -n1 4 -n2 5 -f1 1 -f2 1
//	... (one per server) ...
//
// then write and read with lds-cli using the same -peers string.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"github.com/lds-storage/lds/internal/lds"
	"github.com/lds-storage/lds/internal/nodehost"
	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/transport/tcpnet"
	"github.com/lds-storage/lds/internal/wire"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		nodeID  = flag.Int("node", -1, "group-host mode: topology-wide node id (>= 0)")
		idStr   = flag.String("id", "", "static mode: process id, e.g. L1/0 or L2/3")
		listen  = flag.String("listen", "", "listen address, e.g. :7100")
		peers   = flag.String("peers", "", "static mode address book: id=addr,id=addr,...")
		n1      = flag.Int("n1", 4, "static mode: edge layer size")
		n2      = flag.Int("n2", 5, "static mode: back-end layer size")
		f1      = flag.Int("f1", 1, "static mode: edge layer fault tolerance")
		f2      = flag.Int("f2", 1, "static mode: back-end layer fault tolerance")
		initial = flag.String("initial", "", "static mode: initial object value (L2 servers)")
	)
	flag.Parse()
	if *listen == "" {
		flag.Usage()
		return fmt.Errorf("lds-node: -listen is required")
	}
	if (*nodeID >= 0) == (*idStr != "") {
		flag.Usage()
		return fmt.Errorf("lds-node: exactly one of -node (group-host mode) and -id (static mode) is required")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if *nodeID >= 0 {
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

	return runStatic(*idStr, *listen, *peers, *n1, *n2, *f1, *f2, *initial, sig)
}

// runStatic is the original one-process-one-server deployment.
func runStatic(idStr, listen, peers string, n1, n2, f1, f2 int, initial string, sig chan os.Signal) error {
	if peers == "" {
		flag.Usage()
		return fmt.Errorf("lds-node: static mode needs -peers")
	}
	id, err := tcpnet.ParseProcID(idStr)
	if err != nil {
		return err
	}
	book, err := tcpnet.ParseAddressBook(peers)
	if err != nil {
		return err
	}
	params, err := lds.NewParams(n1, n2, f1, f2)
	if err != nil {
		return err
	}
	code, err := params.NewCode()
	if err != nil {
		return err
	}

	net, err := tcpnet.New(listen, book)
	if err != nil {
		return err
	}
	defer net.Close()

	switch id.Role {
	case wire.RoleL1:
		_, err = lds.RegisterL1(net, params, int(id.Index), code, tag.Zero)
	case wire.RoleL2:
		_, err = lds.RegisterL2(net, params, int(id.Index), code, []byte(initial), tag.Zero)
	default:
		err = fmt.Errorf("lds-node: id %v must be an L1 or L2 server", id)
	}
	if err != nil {
		return err
	}

	log.Printf("lds-node %v listening on %s (n1=%d f1=%d n2=%d f2=%d k=%d d=%d)",
		id, net.Addr(), params.N1, params.F1, params.N2, params.F2, params.K, params.D)
	<-sig
	log.Printf("lds-node %v shutting down", id)
	return nil
}
