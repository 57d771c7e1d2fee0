// Command lds-cli performs read and write operations against a TCP LDS
// cluster started with lds-node.
//
//	lds-cli -peers "$peers" -n1 4 -n2 5 -f1 1 -f2 1 -listen :7300 \
//	        -op write -client 1 -value "hello"
//	lds-cli -peers "$peers" -n1 4 -n2 5 -f1 1 -f2 1 -listen :7301 \
//	        -op read -client 1
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"github.com/lds-storage/lds/internal/lds"
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
		listen  = flag.String("listen", "127.0.0.1:0", "client listen address (servers respond here)")
		peers   = flag.String("peers", "", "address book: id=addr,id=addr,...")
		n1      = flag.Int("n1", 4, "edge layer size")
		n2      = flag.Int("n2", 5, "back-end layer size")
		f1      = flag.Int("f1", 1, "edge layer fault tolerance")
		f2      = flag.Int("f2", 1, "back-end layer fault tolerance")
		op      = flag.String("op", "read", "operation: read or write")
		client  = flag.Int("client", 1, "client id (positive, unique per client)")
		value   = flag.String("value", "", "value to write (for -op write)")
		timeout = flag.Duration("timeout", 30*time.Second, "operation timeout")
	)
	flag.Parse()
	if *peers == "" {
		flag.Usage()
		return fmt.Errorf("lds-cli: -peers is required")
	}
	book, err := tcpnet.ParseAddressBook(*peers)
	if err != nil {
		return err
	}
	params, err := lds.NewParams(*n1, *n2, *f1, *f2)
	if err != nil {
		return err
	}
	code, err := params.NewCode()
	if err != nil {
		return err
	}

	net, err := tcpnet.New(*listen, book)
	if err != nil {
		return err
	}
	defer net.Close()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	switch *op {
	case "write":
		book[wire.ProcID{Role: wire.RoleWriter, Index: int32(*client)}] = net.Addr()
		w, err := lds.RegisterWriter(net, params, int32(*client))
		if err != nil {
			return err
		}
		start := time.Now()
		tg, err := w.Write(ctx, []byte(*value))
		if err != nil {
			return fmt.Errorf("write: %w", err)
		}
		fmt.Printf("wrote %d bytes under tag %v in %v\n", len(*value), tg, time.Since(start).Round(time.Microsecond))
	case "read":
		book[wire.ProcID{Role: wire.RoleReader, Index: int32(*client)}] = net.Addr()
		r, err := lds.RegisterReader(net, params, int32(*client), code)
		if err != nil {
			return err
		}
		start := time.Now()
		v, tg, err := r.Read(ctx)
		if err != nil {
			return fmt.Errorf("read: %w", err)
		}
		fmt.Printf("read %q (tag %v) in %v\n", v, tg, time.Since(start).Round(time.Microsecond))
	default:
		return fmt.Errorf("lds-cli: unknown -op %q, want read or write", *op)
	}
	return nil
}
