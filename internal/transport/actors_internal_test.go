package transport

import (
	"testing"

	"github.com/lds-storage/lds/internal/wire"
)

// TestMailboxReleasesPoppedEnvelopes: a popped slot is zeroed, so the
// backing array never pins a delivered message; FIFO order holds across the
// rewind (queue emptied) and the slide (queue stays busy); and neither an
// idle-then-busy nor an always-busy queue of bounded depth grows the array.
func TestMailboxReleasesPoppedEnvelopes(t *testing.T) {
	a := &actor{signal: make(chan struct{}, 1)}
	a.idle.L = &a.mu
	p := &Process{actor: a}
	idA, idB := wire.ProcID{Role: wire.RoleWriter, Index: 1}, wire.ProcID{Role: wire.RoleL1}
	next, want := uint64(0), uint64(0)
	push := func() {
		a.push(item{p, wire.Envelope{From: idA, To: idB, Msg: wire.QueryTag{OpID: next}}})
		next++
	}
	pop := func() {
		t.Helper()
		it, live, ok := a.pop()
		if got := it.env.Msg.(wire.QueryTag).OpID; !ok || !live || got != want {
			t.Fatalf("pop = op %d, live %v, ok %v; want op %d", got, live, ok, want)
		}
		want++
		backing := a.items[:cap(a.items)]
		for i, slot := range backing[:a.head] {
			if slot.p != nil || slot.env.Msg != nil {
				t.Fatalf("popped slot %d of %d still holds %v", i, len(backing), slot.env.Msg)
			}
		}
		for i, slot := range backing[len(a.items):] {
			if slot.p != nil || slot.env.Msg != nil {
				t.Fatalf("free slot %d of %d still holds %v", len(a.items)+i, len(backing), slot.env.Msg)
			}
		}
	}
	for round := 0; round < 100; round++ { // empties every round
		for i := 0; i < 3; i++ {
			push()
		}
		for i := 0; i < 3; i++ {
			pop()
		}
	}
	push()
	push()
	for round := 0; round < 1000; round++ { // depth 2..3, never empty
		push()
		pop()
	}
	if c := cap(a.items); c > 8 {
		t.Errorf("a queue never deeper than 3 grew its array to %d slots", c)
	}
	if dropped := a.close(); dropped != 2 {
		t.Errorf("close dropped %d items, want 2", dropped)
	}
}

// TestServerSetMapsToDistinctActors: one key's servers never share an
// actor (an L1 encode must not sit in front of the same key's L2 helpers),
// in any class, and consecutive groups land in different classes.
func TestServerSetMapsToDistinctActors(t *testing.T) {
	const n1, n2 = 6, 8
	for _, group := range []int32{0, 1, 15, 16, 511, MaxNamespaceGroups - 1} {
		seen := make(map[int]wire.ProcID)
		for role, n := range map[wire.Role]int32{wire.RoleL1: n1, wire.RoleL2: n2} {
			for i := int32(0); i < n; i++ {
				id := wire.ProcID{Role: role, Index: group*NamespaceStride + i}
				a := actorIndex(id)
				if a < 0 || a >= actorClasses*actorLanes {
					t.Fatalf("%v maps to actor %d, outside the table", id, a)
				}
				if other, dup := seen[a]; dup {
					t.Errorf("group %d: %v and %v share actor %d", group, other, id, a)
				}
				seen[a] = id
			}
		}
		if len(seen) != n1+n2 {
			t.Errorf("group %d: %d distinct actors for %d servers", group, len(seen), n1+n2)
		}
	}
	l1 := func(group int32) int {
		return actorIndex(wire.ProcID{Role: wire.RoleL1, Index: group * NamespaceStride})
	}
	for g := int32(0); g < actorClasses-1; g++ {
		if l1(g) == l1(g+1) {
			t.Errorf("groups %d and %d share the actor of L1/0", g, g+1)
		}
	}
	if l1(3) != l1(3+actorClasses) {
		t.Errorf("groups 3 and %d are one class and must share actors", 3+actorClasses)
	}
	// Control endpoints of fleet peers have negative indices.
	if a := actorIndex(wire.ProcID{Role: wire.RoleControl, Index: -70000}); a < 0 || a >= actorClasses*actorLanes {
		t.Errorf("negative index maps to actor %d, outside the table", a)
	}
}
