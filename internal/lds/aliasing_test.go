package lds_test

// Protocol-level buffer-aliasing safety: the per-client and per-server
// scratch recycling must never let a buffer the application (or the
// history checker) retains be overwritten by later operations. The
// guarantee under test is the one documented in the erasure and client
// layers — everything returned across the API boundary is freshly
// allocated; only internal scratch is pooled.

import (
	"bytes"
	"testing"
	"time"
)

// TestAliasingReadValueCallerOwned: the value a read returns belongs to
// the caller. Scribbling over it must not disturb the stored object —
// neither the L1 temporary copy (first phase) nor the L2 coded elements
// serving post-offload regeneration (second phase).
func TestAliasingReadValueCallerOwned(t *testing.T) {
	ctx := testCtx(t)
	c := newCluster(t, smallParams(t))
	w, err := c.Writer(1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Reader(1)
	if err != nil {
		t.Fatal(err)
	}
	value := bytes.Repeat([]byte("edge"), 300)
	if _, err := w.Write(ctx, value); err != nil {
		t.Fatal(err)
	}

	got1, _, err := r.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got1, value) {
		t.Fatalf("first read mismatch")
	}
	for i := range got1 {
		got1[i] = 0xAA
	}
	got2, _, err := r.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, value) {
		t.Error("stored value corrupted by scribbling a returned read buffer (L1 path)")
	}

	// Let the offload pipeline finish so L1 garbage-collects its temporary
	// copy; the next read regenerates from the L2 coded elements.
	if err := c.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	got3, _, err := r.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got3, value) {
		t.Fatalf("post-offload read mismatch")
	}
	for i := range got3 {
		got3[i] = 0x55
	}
	got4, _, err := r.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got4, value) {
		t.Error("L2 coded elements corrupted by scribbling a returned read buffer (regeneration path)")
	}
}

// TestAliasingWriteBufferCallerOwned is the mirror for writes: once Write
// returns the caller may reuse its buffer. Scribbling over it must reach
// neither the L1 temporary copies (some servers have not even handled the
// put-data yet) nor, through the later offload, the L2 coded elements.
func TestAliasingWriteBufferCallerOwned(t *testing.T) {
	ctx := testCtx(t)
	c := newCluster(t, smallParams(t))
	w, err := c.Writer(1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Reader(1)
	if err != nil {
		t.Fatal(err)
	}
	// Large enough that the offload is still encoding when Write returns.
	want := bytes.Repeat([]byte("edge"), 16<<10)
	buf := bytes.Clone(want)
	if _, err := w.Write(ctx, buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xAA
	}
	got, _, err := r.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("stored value corrupted by reusing the written buffer (L1 path)")
	}
	if err := c.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	got, _, err = r.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("L2 coded elements encode the reused buffer, not the written value (offload path)")
	}
}

// TestAliasingRetainedReadsSurviveLaterOps models the history checker: it
// retains every read result for the whole run. Values returned early must
// still be intact after many later operations have churned every pool in
// the system.
func TestAliasingRetainedReadsSurviveLaterOps(t *testing.T) {
	ctx := testCtx(t)
	c := newCluster(t, smallParams(t))
	w, err := c.Writer(1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Reader(1)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 10
	retained := make([][]byte, 0, rounds)
	snapshots := make([][]byte, 0, rounds)
	for i := 0; i < rounds; i++ {
		value := bytes.Repeat([]byte{byte('a' + i)}, 700+i*13)
		if _, err := w.Write(ctx, value); err != nil {
			t.Fatal(err)
		}
		got, _, err := r.Read(ctx)
		if err != nil {
			t.Fatal(err)
		}
		retained = append(retained, got) // the reference the checker keeps
		snapshots = append(snapshots, append([]byte(nil), got...))
	}
	if err := c.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Read(ctx); err != nil { // one more churn via regeneration
		t.Fatal(err)
	}
	for i := range retained {
		if !bytes.Equal(retained[i], snapshots[i]) {
			t.Errorf("round %d: retained read value mutated by later operations", i)
		}
	}
}
