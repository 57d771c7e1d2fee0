package tcpnet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/lds-storage/lds/internal/lds"
	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/wire"
)

func TestSendBetweenHosts(t *testing.T) {
	idA := wire.ProcID{Role: wire.RoleL1, Index: 0}
	idB := wire.ProcID{Role: wire.RoleL1, Index: 1}

	// Boot two hosts with placeholder addresses, then fix the book.
	book := AddressBook{}
	hostA, err := New("127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	defer hostA.Close()
	hostB, err := New("127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	defer hostB.Close()
	book[idA] = hostA.Addr()
	book[idB] = hostB.Addr()

	got := make(chan wire.Envelope, 1)
	a, err := hostA.Register(idA, func(wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hostB.Register(idB, func(env wire.Envelope) { got <- env }); err != nil {
		t.Fatal(err)
	}

	msg := wire.PutData{OpID: 7, Tag: tag.Tag{Z: 1, W: 1}, Value: []byte("over tcp")}
	if err := a.Send(idB, msg); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-got:
		if env.From != idA || env.To != idB {
			t.Errorf("addressing %v -> %v", env.From, env.To)
		}
		pd, ok := env.Msg.(wire.PutData)
		if !ok || !bytes.Equal(pd.Value, []byte("over tcp")) {
			t.Errorf("message corrupted: %#v", env.Msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message not delivered over TCP")
	}
}

func TestLocalShortCircuit(t *testing.T) {
	idA := wire.ProcID{Role: wire.RoleL1, Index: 0}
	idB := wire.ProcID{Role: wire.RoleL1, Index: 1}
	book := AddressBook{}
	host, err := New("127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	book[idA] = host.Addr()
	book[idB] = host.Addr()

	got := make(chan wire.Envelope, 1)
	a, _ := host.Register(idA, func(wire.Envelope) {})
	host.Register(idB, func(env wire.Envelope) { got <- env })
	if err := a.Send(idB, wire.CommitTag{Tag: tag.Tag{Z: 2, W: 1}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("local delivery failed")
	}
}

func TestSendErrors(t *testing.T) {
	idA := wire.ProcID{Role: wire.RoleL1, Index: 0}
	host, err := New("127.0.0.1:0", AddressBook{idA: "placeholder"})
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	a, _ := host.Register(idA, func(wire.Envelope) {})
	if err := a.Send(wire.ProcID{Role: wire.RoleL2, Index: 9}, wire.CommitTag{}); !errors.Is(err, ErrNoAddress) {
		t.Errorf("send without address: %v, want ErrNoAddress", err)
	}
	if _, err := host.Register(idA, func(wire.Envelope) {}); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate register: %v", err)
	}
}

// TestFullLDSClusterOverTCP runs the complete protocol over real sockets:
// the same servers and clients as the simulation, deployed across three
// Network hosts on localhost.
func TestFullLDSClusterOverTCP(t *testing.T) {
	params, err := lds.NewParams(4, 5, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	code, err := params.NewCode()
	if err != nil {
		t.Fatal(err)
	}

	book := AddressBook{}
	// Three "machines": one for L1, one for L2, one for clients.
	hosts := make([]*Network, 3)
	for i := range hosts {
		h, err := New("127.0.0.1:0", book)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		hosts[i] = h
	}
	for _, id := range params.L1IDs() {
		book[id] = hosts[0].Addr()
	}
	for _, id := range params.L2IDs() {
		book[id] = hosts[1].Addr()
	}
	// The client entries go in before any Register: the registered servers'
	// node loops read the shared book concurrently (resolve), so it must be
	// frozen before the first server goroutine exists.
	book[wire.ProcID{Role: wire.RoleWriter, Index: 1}] = hosts[2].Addr()
	book[wire.ProcID{Role: wire.RoleReader, Index: 1}] = hosts[2].Addr()

	for i := 0; i < params.N1; i++ {
		if _, err := lds.RegisterL1(hosts[0], params, i, code, tag.Zero); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < params.N2; i++ {
		if _, err := lds.RegisterL2(hosts[1], params, i, code, nil, tag.Zero); err != nil {
			t.Fatal(err)
		}
	}
	w, err := lds.RegisterWriter(hosts[2], params, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := lds.RegisterReader(hosts[2], params, 1, code)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		value := []byte(fmt.Sprintf("tcp round %d", i))
		if _, err := w.Write(ctx, value); err != nil {
			t.Fatalf("Write over TCP: %v", err)
		}
		got, _, err := r.Read(ctx)
		if err != nil {
			t.Fatalf("Read over TCP: %v", err)
		}
		if !bytes.Equal(got, value) {
			t.Fatalf("round %d: got %q, want %q", i, got, value)
		}
	}
}
