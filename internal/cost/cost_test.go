package cost

import (
	"math"
	"testing"
	"time"

	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/wire"
)

func TestClassify(t *testing.T) {
	tests := []struct {
		from, to wire.Role
		want     LinkClass
	}{
		{wire.RoleWriter, wire.RoleL1, ClientL1},
		{wire.RoleL1, wire.RoleReader, ClientL1},
		{wire.RoleL1, wire.RoleL1, L1L1},
		{wire.RoleL1, wire.RoleL2, L1L2},
		{wire.RoleL2, wire.RoleL1, L1L2},
		{wire.RoleWriter, wire.RoleReader, OtherLink},
	}
	for _, tt := range tests {
		if got := Classify(tt.from, tt.to); got != tt.want {
			t.Errorf("Classify(%v, %v) = %v, want %v", tt.from, tt.to, got, tt.want)
		}
	}
}

func TestAccountantObserveAndSnapshot(t *testing.T) {
	a := NewAccountant()
	a.Observe(wire.Envelope{
		From: wire.ProcID{Role: wire.RoleWriter, Index: 1},
		To:   wire.ProcID{Role: wire.RoleL1, Index: 0},
		Msg:  wire.PutData{OpID: 1, Tag: tag.Tag{Z: 1, W: 1}, Value: make([]byte, 100)},
	})
	a.Observe(wire.Envelope{
		From: wire.ProcID{Role: wire.RoleL1, Index: 0},
		To:   wire.ProcID{Role: wire.RoleL2, Index: 3},
		Msg:  wire.WriteCodeElem{Tag: tag.Tag{Z: 1, W: 1}, Coded: make([]byte, 40)},
	})
	s := a.Snapshot()
	if got := s.Class(ClientL1).Payload; got != 100 {
		t.Errorf("client-L1 payload = %d, want 100", got)
	}
	if got := s.Class(L1L2).Payload; got != 40 {
		t.Errorf("L1-L2 payload = %d, want 40", got)
	}
	if s.TotalPayload() != 140 || s.TotalMessages() != 2 {
		t.Errorf("totals = %d bytes / %d msgs", s.TotalPayload(), s.TotalMessages())
	}
	if got := s.NormalizedPayload(100); got != 1.4 {
		t.Errorf("normalized = %v, want 1.4", got)
	}
	if got := s.NormalizedPayload(0); got != 0 {
		t.Errorf("normalized with zero size = %v, want 0", got)
	}
	if s.Class(ClientL1).Meta <= 0 {
		t.Error("metadata bytes should be positive")
	}

	prev := s
	a.Observe(wire.Envelope{
		From: wire.ProcID{Role: wire.RoleL1, Index: 0},
		To:   wire.ProcID{Role: wire.RoleL1, Index: 1},
		Msg:  wire.CommitTag{Tag: tag.Tag{Z: 1, W: 1}},
	})
	delta := a.Snapshot().Sub(prev)
	if delta.TotalMessages() != 1 || delta.TotalPayload() != 0 {
		t.Errorf("delta = %d msgs / %d bytes, want 1 / 0", delta.TotalMessages(), delta.TotalPayload())
	}

	a.Reset()
	if a.Snapshot().TotalMessages() != 0 {
		t.Error("Reset did not clear counters")
	}
}

// TestKindPayloadCoversEveryKind: the per-kind table bills the repair
// plane's payload kinds, whose discriminators pass 32, like any other.
func TestKindPayloadCoversEveryKind(t *testing.T) {
	a := NewAccountant()
	ctl := wire.ProcID{Role: wire.RoleControl, Index: 1}
	a.Observe(wire.Envelope{From: ctl, To: ctl, Msg: wire.ElemFetchResp{Data: make([]byte, 7)}})
	a.Observe(wire.Envelope{From: ctl, To: ctl, Msg: wire.ElemRepair{Coded: make([]byte, 5)}})
	s := a.Snapshot()
	for k, want := range map[wire.Kind]int64{wire.KindElemFetchResp: 7, wire.KindElemRepair: 5, 255: 0} {
		if got := s.KindPayload(k); got != want {
			t.Errorf("KindPayload(%d) = %d, want %d", k, got, want)
		}
	}
	if got := s.Sub(Snapshot{}).KindPayload(wire.KindElemRepair); got != 5 {
		t.Errorf("Sub keeps KindPayload(ElemRepair) = %d, want 5", got)
	}
}

// BenchmarkObserve: what the accountant costs per envelope, for a 16 KiB
// put-data and for the messages of a 4 KiB write and read.
func BenchmarkObserve(b *testing.B) {
	w := wire.ProcID{Role: wire.RoleWriter, Index: 1}
	r := wire.ProcID{Role: wire.RoleReader, Index: 1}
	l1 := wire.ProcID{Role: wire.RoleL1, Index: 0}
	l2 := wire.ProcID{Role: wire.RoleL2, Index: 0}
	t1 := tag.Tag{Z: 1 << 20, W: 1}
	value := make([]byte, 4<<10)
	mix := []wire.Envelope{
		{From: w, To: l1, Msg: wire.QueryTag{OpID: 1}},
		{From: l1, To: w, Msg: wire.QueryTagResp{OpID: 1, Tag: t1}},
		{From: w, To: l1, Msg: wire.PutData{OpID: 2, Tag: t1, Value: value}},
		{From: l1, To: l1, Msg: wire.Broadcast{Origin: l1, Seq: 3, Inner: wire.CommitTag{Tag: t1}}},
		{From: l1, To: w, Msg: wire.PutDataResp{OpID: 2, Tag: t1}},
		{From: l1, To: l2, Msg: wire.WriteCodeElemBatch{Elems: []wire.CodeElem{{Tag: t1, Coded: value[:1<<10], ValueLen: 4 << 10}}}},
		{From: l2, To: l1, Msg: wire.AckCodeElemBatch{Tags: []tag.Tag{t1}}},
		{From: r, To: l1, Msg: wire.QueryCommTag{OpID: 4}},
		{From: l1, To: r, Msg: wire.QueryCommTagResp{OpID: 4, Tag: t1}},
		{From: r, To: l1, Msg: wire.QueryData{OpID: 5, Req: t1}},
		{From: l1, To: r, Msg: wire.QueryDataResp{OpID: 5, Class: wire.PayloadValue, Tag: t1, Data: value, ValueLen: 4 << 10}},
		{From: r, To: l1, Msg: wire.PutTag{OpID: 6, Tag: t1}},
		{From: l1, To: r, Msg: wire.PutTagResp{OpID: 6}},
	}
	for _, bc := range []struct {
		name string
		envs []wire.Envelope
	}{
		{"putdata_16KiB", []wire.Envelope{{From: w, To: l1, Msg: wire.PutData{OpID: 2, Tag: t1, Value: make([]byte, 16<<10)}}}},
		{"mix_4KiB", mix},
	} {
		b.Run(bc.name, func(b *testing.B) {
			a := NewAccountant()
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				a.Observe(bc.envs[i%len(bc.envs)])
			}
		})
	}
}

func TestLinkClassString(t *testing.T) {
	if ClientL1.String() != "client-L1" || L1L1.String() != "L1-L1" || L1L2.String() != "L1-L2" || OtherLink.String() != "other" {
		t.Error("LinkClass.String mismatch")
	}
}

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMBRFileSize(t *testing.T) {
	tests := []struct{ k, d, want int }{
		{1, 1, 1},
		{2, 3, 5},
		{80, 80, 3240},
	}
	for _, tt := range tests {
		if got := MBRFileSizeSymbols(tt.k, tt.d); got != tt.want {
			t.Errorf("B(%d,%d) = %d, want %d", tt.k, tt.d, got, tt.want)
		}
	}
}

func TestWriteCostFormula(t *testing.T) {
	// Lemma V.2: n1 + n1*n2*2d/(k(2d-k+1)).
	got := WriteCostLDS(10, 12, 4, 6)
	want := 10 + 10*12*(2.0*6)/(4*(2*6-4+1))
	if !almostEqual(got, want) {
		t.Errorf("WriteCostLDS = %v, want %v", got, want)
	}
}

func TestReadCostFormula(t *testing.T) {
	n1, n2, k, d := 10, 12, 4, 6
	base := float64(n1) * (1 + float64(n2)/float64(d)) * (2.0 * float64(d)) / float64(k*(2*d-k+1))
	if got := ReadCostLDS(n1, n2, k, d, false); !almostEqual(got, base) {
		t.Errorf("ReadCostLDS(delta=0) = %v, want %v", got, base)
	}
	if got := ReadCostLDS(n1, n2, k, d, true); !almostEqual(got, base+float64(n1)) {
		t.Errorf("ReadCostLDS(delta>0) = %v, want %v", got, base+10)
	}
}

func TestStorageFormulasPaperExample(t *testing.T) {
	// The paper's Fig. 6 example: n1 = n2 = 100, k = d = 80. It notes the
	// L2 storage cost per object is "less than 3" versus 100 for
	// replication.
	perObject := StorageCostL2MBR(100, 80, 80)
	if perObject >= 3 || perObject <= 2 {
		t.Errorf("MBR L2 storage = %v, paper says between 2 and 3", perObject)
	}
	if got := StorageCostL2Replication(100); got != 100 {
		t.Errorf("replication storage = %v, want 100", got)
	}
	if got := StorageCostL2MSR(100, 80); !almostEqual(got, 1.25) {
		t.Errorf("MSR storage = %v, want 1.25", got)
	}
	// Remark 2: MBR is at most 2x MSR.
	ratio := MBROverMSRStorageRatio(80, 80)
	if ratio > 2 || !almostEqual(ratio, perObject/StorageCostL2MSR(100, 80)) {
		t.Errorf("MBR/MSR ratio = %v, want <= 2 and consistent", ratio)
	}
}

func TestLatencyBounds(t *testing.T) {
	tau0, tau1, tau2 := 1*time.Millisecond, 2*time.Millisecond, 20*time.Millisecond
	if got := WriteLatencyBound(tau0, tau1); got != 10*time.Millisecond {
		t.Errorf("write bound = %v, want 10ms", got)
	}
	// max(3*2+2*1+2*20, 4*2+2*1) = max(48, 10) = 48ms.
	if got := ExtendedWriteLatencyBound(tau0, tau1, tau2); got != 48*time.Millisecond {
		t.Errorf("extended write bound = %v, want 48ms", got)
	}
	// max(6*2+2*20, 5*2+2*1+20) = max(52, 32) = 52ms.
	if got := ReadLatencyBound(tau0, tau1, tau2); got != 52*time.Millisecond {
		t.Errorf("read bound = %v, want 52ms", got)
	}
	// With a fast back-end the other arms dominate.
	if got := ExtendedWriteLatencyBound(tau0, tau1, 0); got != 10*time.Millisecond {
		t.Errorf("extended write bound (tau2=0) = %v, want 10ms", got)
	}
	if got := ReadLatencyBound(10*time.Millisecond, tau1, 0); got != 30*time.Millisecond {
		t.Errorf("read bound (tau2=0) = %v, want 30ms", got)
	}
}

func TestMultiObjectFormulasFig6(t *testing.T) {
	// Fig. 6 parameters: n1 = n2 = 100, k = d = 80, mu = 10, theta = 100.
	l1Bound := L1StorageBoundMultiObject(100, 100, 10)
	if l1Bound != 250_000 { // ceil(25) * 100 * 100
		t.Errorf("L1 bound = %v, want 250000", l1Bound)
	}
	// L2 = 2*N*n2/(k+1); it crosses the L1 bound at
	// N = 250000*(k+1)/(2*n2) = 101250, the knee Fig. 6 shows just above
	// N = 1e5.
	crossover := l1Bound * 81 / 200
	if math.Abs(crossover-101_250) > 1e-6 {
		t.Errorf("crossover N = %v, want 101250", crossover)
	}
	l2 := L2StorageMultiObject(200_000, 100, 80)
	if math.Abs(l2-2*200_000*100.0/81) > 1e-6 {
		t.Errorf("L2 storage = %v", l2)
	}
	if l2 < l1Bound {
		t.Error("at N = 2e5 permanent storage should dominate the L1 bound")
	}
	// And per object it stays below 3 units.
	if perObj := l2 / 200_000; perObj >= 3 {
		t.Errorf("L2 per object = %v, paper says < 3", perObj)
	}
}

func TestReadCostMSRSubstitution(t *testing.T) {
	// Remark 1 compares the codes in the symmetric system (n1 = n2,
	// f1 = f2, hence d = k). At the MSR point with d = k, beta = alpha =
	// B/k, so the helper traffic alone is n1*n2/k = Omega(n1) when
	// k = Theta(n2); MBR at the same geometry stays Theta(1).
	n1, n2, k := 100, 100, 80
	msr := ReadCostMSRSubstitution(n1, n2, k, k, false)
	mbr := ReadCostLDS(n1, n2, k, k, false)
	if msr < float64(n1) {
		t.Errorf("MSR read cost %v, want Omega(n1) = %d", msr, n1)
	}
	if mbr > 10 {
		t.Errorf("MBR read cost %v, want Theta(1) (small constant)", mbr)
	}
	if msr/mbr < 10 {
		t.Errorf("MSR/MBR read-cost ratio %v, want an order of magnitude", msr/mbr)
	}
	// With concurrency the n1 term is added to both.
	if got := ReadCostMSRSubstitution(n1, n2, k, k, true); !almostEqual(got, msr+float64(n1)) {
		t.Errorf("concurrent MSR cost = %v, want %v", got, msr+float64(n1))
	}
}
