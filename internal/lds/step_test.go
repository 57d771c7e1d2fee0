package lds_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/lds-storage/lds/internal/history"
	"github.com/lds-storage/lds/internal/lds"
	"github.com/lds-storage/lds/internal/sim"
	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/wire"
)

// stepCluster is a whole LDS system as plain values, with no network and no
// goroutines: n1 L1 and n2 L2 machines, client machines, and the multiset
// of envelopes in flight. One seeded generator makes every choice — which
// envelope is delivered next (reordering), whether a copy stays behind
// (duplication), when an idle client starts its next operation, and when a
// server crashes — so a failing seed is a one-line repro. Times in the
// recorded history are logical: one tick per invocation or response.
type stepCluster struct {
	t       *testing.T
	seed    int64
	rng     *rand.Rand
	l1      []*lds.L1Server
	procs   map[wire.ProcID]stepper
	clients map[wire.ProcID]*stepClient
	order   []*stepClient // clients in the order added, for seeded picks
	crashAt map[wire.ProcID]int
	crashed map[wire.ProcID]bool
	bag     []wire.Envelope
	out     wire.Outbox
	steps   int
	clock   int64
	ops     []history.Op
}

// stepper is any of the four machines.
type stepper interface {
	Step(from wire.ProcID, msg wire.Message, out *wire.Outbox)
}

// stepClient is one client process: its machine, the operations it has
// left, and the one in flight.
type stepClient struct {
	id    wire.ProcID
	w     *lds.WriteOp
	r     *lds.ReadOp
	todo  int
	n     int
	busy  bool
	start time.Time
	value string
}

// Scheduler constants: a delivery leaves a duplicate behind one time in
// dupOneIn; an idle client starts its next operation, while envelopes are
// in flight, one time in startOneIn; a run longer than maxSteps is a
// liveness failure.
const (
	dupOneIn   = 20
	startOneIn = 8
	maxSteps   = 200_000
)

func newStepCluster(t *testing.T, p lds.Params, seed int64) *stepCluster {
	t.Helper()
	code, err := p.NewCode()
	if err != nil {
		t.Fatal(err)
	}
	c := &stepCluster{
		t:       t,
		seed:    seed,
		rng:     rand.New(rand.NewSource(seed)),
		procs:   make(map[wire.ProcID]stepper),
		clients: make(map[wire.ProcID]*stepClient),
		crashAt: make(map[wire.ProcID]int),
		crashed: make(map[wire.ProcID]bool),
	}
	for i := 0; i < p.N1; i++ {
		s, err := lds.NewL1Server(p, i, code, tag.Zero, 0)
		if err != nil {
			t.Fatal(err)
		}
		c.l1 = append(c.l1, s)
		c.procs[s.ID()] = s
	}
	for i := 0; i < p.N2; i++ {
		s, err := lds.NewL2Server(p, i, code, nil, tag.Zero)
		if err != nil {
			t.Fatal(err)
		}
		c.procs[s.ID()] = s
	}
	return c
}

func (c *stepCluster) addClient(cl *stepClient) {
	c.clients[cl.id] = cl
	c.order = append(c.order, cl)
	if cl.w != nil {
		c.procs[cl.id] = cl.w
	} else {
		c.procs[cl.id] = cl.r
	}
}

// writer adds a writer that will run ops writes of unique values.
func (c *stepCluster) writer(p lds.Params, wid int32, ops int) {
	w, err := lds.NewWriteOp(p, wid, 0)
	if err != nil {
		c.t.Fatal(err)
	}
	c.addClient(&stepClient{id: wire.ProcID{Role: wire.RoleWriter, Index: wid}, w: w, todo: ops})
}

// reader adds a reader that will run ops reads.
func (c *stepCluster) reader(p lds.Params, rid int32, ops int) {
	code, err := p.NewCode()
	if err != nil {
		c.t.Fatal(err)
	}
	r, err := lds.NewReadOp(p, rid, code, 0)
	if err != nil {
		c.t.Fatal(err)
	}
	c.addClient(&stepClient{id: wire.ProcID{Role: wire.RoleReader, Index: rid}, r: r, todo: ops})
}

// crashRandom crashes l1 distinct L1 and l2 distinct L2 servers, each at a
// seeded step below horizon.
func (c *stepCluster) crashRandom(p lds.Params, l1, l2, horizon int) {
	for _, idx := range c.rng.Perm(p.N1)[:l1] {
		c.crashAt[wire.ProcID{Role: wire.RoleL1, Index: int32(idx)}] = c.rng.Intn(horizon)
	}
	for _, idx := range c.rng.Perm(p.N2)[:l2] {
		c.crashAt[wire.ProcID{Role: wire.RoleL2, Index: int32(idx)}] = c.rng.Intn(horizon)
	}
}

// run drives the system until every client has finished its operations and
// nothing is in flight; it fails the test if that never happens.
func (c *stepCluster) run() {
	c.t.Helper()
	for ; c.steps < maxSteps; c.steps++ {
		var idle []*stepClient
		for _, cl := range c.order {
			if !cl.busy && cl.todo > 0 {
				idle = append(idle, cl)
			}
		}
		if len(idle) > 0 && (len(c.bag) == 0 || c.rng.Intn(startOneIn) == 0) {
			c.begin(idle[c.rng.Intn(len(idle))])
			continue
		}
		if len(c.bag) == 0 {
			break
		}
		c.deliver()
	}
	for _, cl := range c.order {
		if cl.busy || cl.todo > 0 {
			phase := "idle"
			if cl.w != nil {
				phase = cl.w.Phase()
			} else {
				phase = cl.r.Phase()
			}
			c.t.Fatalf("seed %d: liveness: %v stuck in %s after %d steps with %d operations left",
				c.seed, cl.id, phase, c.steps, cl.todo)
		}
	}
}

func (c *stepCluster) begin(cl *stepClient) {
	c.clock++
	cl.start = time.Unix(0, c.clock)
	cl.busy = true
	if cl.w != nil {
		cl.value = fmt.Sprintf("%v-%d", cl.id, cl.n)
		cl.w.Start([]byte(cl.value), &c.out)
	} else {
		cl.r.Start(&c.out)
	}
	cl.n++
	cl.todo--
	c.post(cl.id, len(c.out.Msgs))
}

// deliver takes a seeded envelope out of the bag, or copies it, and runs
// its destination's step. A server whose crash step has come crashes during
// this step of its own: a seeded prefix of its sends leaves, the rest never
// does — the mid-action crash the broadcast primitive defends against.
func (c *stepCluster) deliver() {
	i := c.rng.Intn(len(c.bag))
	env := c.bag[i]
	if c.rng.Intn(dupOneIn) != 0 {
		c.bag[i] = c.bag[len(c.bag)-1]
		c.bag = c.bag[:len(c.bag)-1]
	}
	m := c.procs[env.To]
	if m == nil || c.crashed[env.To] {
		return
	}
	m.Step(env.From, env.Msg, &c.out)
	keep := len(c.out.Msgs)
	if at, ok := c.crashAt[env.To]; ok && at <= c.steps {
		c.crashed[env.To] = true
		keep = c.rng.Intn(keep + 1)
	}
	c.post(env.To, keep)
	if cl := c.clients[env.To]; cl != nil && cl.busy {
		if (cl.w != nil && cl.w.Done()) || (cl.r != nil && cl.r.Done()) {
			c.finish(cl)
		}
	}
}

// post moves the first keep queued envelopes, sent by from, into the bag.
func (c *stepCluster) post(from wire.ProcID, keep int) {
	for _, e := range c.out.Msgs[:keep] {
		e.From = from
		c.bag = append(c.bag, e)
	}
	c.out.Reset()
}

func (c *stepCluster) finish(cl *stepClient) {
	c.clock++
	op := history.Op{Client: cl.id.Index, Start: cl.start, End: time.Unix(0, c.clock)}
	if cl.w != nil {
		op.Kind, op.Tag, op.Value = history.OpWrite, cl.w.Tag(), cl.value
	} else {
		v, tg, err := cl.r.Result()
		if err != nil {
			c.t.Errorf("seed %d: %v read %d: %v", c.seed, cl.id, cl.n, err)
		}
		op.Kind, op.Tag, op.Value = history.OpRead, tg, string(v)
	}
	c.ops = append(c.ops, op)
	cl.busy = false
}

// check verifies the recorded history and the servers' invariants.
func (c *stepCluster) check() {
	c.t.Helper()
	for _, v := range history.Verify(c.ops) {
		c.t.Errorf("seed %d: atomicity violation: %v", c.seed, v)
	}
	for _, v := range history.VerifyUniqueValues(c.ops, "") {
		c.t.Errorf("seed %d: value-based violation: %v", c.seed, v)
	}
	for _, s := range c.l1 {
		if v := s.Violations(); v != 0 {
			c.t.Errorf("seed %d: %v: %d invariant violations", c.seed, s.ID(), v)
		}
	}
}

// TestStepClusterSeeds: two concurrent writers and a reader on machines
// driven by a seeded scheduler that reorders and duplicates every envelope
// and crashes one server per layer at a seeded step. Every history must be
// atomic, by tags and by values, with no invariant violation.
func TestStepClusterSeeds(t *testing.T) {
	seeds := 500
	if testing.Short() {
		seeds = 50
	}
	for _, g := range [][4]int{{3, 4, 1, 1}, {6, 8, 1, 2}} {
		p := sim.MustParams(g[0], g[1], g[2], g[3])
		t.Run(fmt.Sprintf("%d,%d,%d,%d", g[0], g[1], g[2], g[3]), func(t *testing.T) {
			for seed := int64(0); seed < int64(seeds) && !t.Failed(); seed++ {
				c := newStepCluster(t, p, seed)
				c.writer(p, 1, 3)
				c.writer(p, 2, 3)
				c.reader(p, 1, 3)
				c.crashRandom(p, 1, 1, 40*(p.N1+p.N2))
				c.run()
				c.check()
			}
		})
	}
}

// TestAtomicityWithCrashes crashes f1 = 2 L1 and f2 = 2 L2 servers at
// seeded steps under two writers and three readers.
func TestAtomicityWithCrashes(t *testing.T) {
	p := sim.MustParams(5, 7, 2, 2)
	for seed := int64(0); seed < 20 && !t.Failed(); seed++ {
		c := newStepCluster(t, p, seed)
		c.writer(p, 1, 8)
		c.writer(p, 2, 8)
		for rid := int32(1); rid <= 3; rid++ {
			c.reader(p, rid, 8)
		}
		c.crashRandom(p, p.F1, p.F2, 2000)
		c.run()
		c.check()
	}
}
