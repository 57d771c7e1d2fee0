package erasure

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name    string
		p       Params
		wantErr bool
	}{
		{"valid", Params{N: 10, K: 3, D: 5}, false},
		{"k = d", Params{N: 5, K: 2, D: 2}, false},
		{"max field", Params{N: 256, K: 10, D: 20}, false},
		{"k zero", Params{N: 5, K: 0, D: 2}, true},
		{"d < k", Params{N: 5, K: 3, D: 2}, true},
		{"n = d", Params{N: 5, K: 2, D: 5}, true},
		{"field overflow", Params{N: 257, K: 2, D: 3}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate(%+v) = %v, wantErr %v", tt.p, err, tt.wantErr)
			}
		})
	}
}

func TestStripeCount(t *testing.T) {
	tests := []struct {
		valueLen, stripeSize, want int
	}{
		{0, 10, 1},  // empty values still occupy one stripe
		{-5, 10, 1}, // defensive: negative treated as empty
		{1, 10, 1},
		{10, 10, 1},
		{11, 10, 2},
		{100, 7, 15},
	}
	for _, tt := range tests {
		if got := StripeCount(tt.valueLen, tt.stripeSize); got != tt.want {
			t.Errorf("StripeCount(%d, %d) = %d, want %d", tt.valueLen, tt.stripeSize, got, tt.want)
		}
	}
}

func TestPadToStripes(t *testing.T) {
	padded := PadToStripes([]byte{1, 2, 3}, 5)
	if len(padded) != 5 {
		t.Fatalf("padded length = %d, want 5", len(padded))
	}
	if padded[0] != 1 || padded[2] != 3 || padded[3] != 0 || padded[4] != 0 {
		t.Errorf("padded = %v", padded)
	}
	if got := PadToStripes(nil, 4); len(got) != 4 {
		t.Errorf("PadToStripes(nil) length = %d, want one stripe", len(got))
	}
}

func TestPadToStripesProperty(t *testing.T) {
	f := func(data []byte) bool {
		const stripe = 13
		padded := PadToStripes(data, stripe)
		if len(padded)%stripe != 0 || len(padded) < len(data) || len(padded) == 0 {
			return false
		}
		// Prefix preserved, suffix zero.
		for i, b := range data {
			if padded[i] != b {
				return false
			}
		}
		for _, b := range padded[len(data):] {
			if b != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLanes(t *testing.T) {
	value := []byte{1, 2, 3, 4, 5, 6, 7} // 7 bytes in 4 lanes of L = 2
	lanes := Lanes(value, 4, []int{0, 3, -1, 2, 3})
	want := [][]byte{{1, 2}, {7}, nil, {5, 6}, {7}}
	for i := range want {
		if !bytes.Equal(lanes[i], want[i]) || (want[i] == nil) != (lanes[i] == nil) {
			t.Errorf("lane %d = %v, want %v", i, lanes[i], want[i])
		}
	}
	if &lanes[0][0] != &value[0] || &lanes[1][0] != &value[6] {
		t.Error("lanes must alias the value, not copy it")
	}
	// Past the end of the value a lane is empty: the padding is implied.
	if got := Lanes([]byte{9}, 3, []int{0, 1, 2}); len(got[0]) != 1 || len(got[1]) != 0 || len(got[2]) != 0 {
		t.Errorf("lanes of a 1-byte value = %v, want one byte then nothing", got)
	}
	if got := Lanes(nil, 3, []int{0, 1, 2}); len(got[0])+len(got[1])+len(got[2]) != 0 {
		t.Errorf("lanes of an empty value = %v, want all empty", got)
	}
}

func TestCheckDistinct(t *testing.T) {
	if err := CheckDistinct([]int{0, 3, 7}, 8); err != nil {
		t.Errorf("distinct in-range indices rejected: %v", err)
	}
	if err := CheckDistinct(nil, 8); err != nil {
		t.Errorf("empty set rejected: %v", err)
	}
	if err := CheckDistinct([]int{1, 1}, 8); !errors.Is(err, ErrDuplicateItem) {
		t.Errorf("duplicate: %v, want ErrDuplicateItem", err)
	}
	if err := CheckDistinct([]int{8}, 8); !errors.Is(err, ErrIndexRange) {
		t.Errorf("out of range: %v, want ErrIndexRange", err)
	}
	if err := CheckDistinct([]int{-1}, 8); !errors.Is(err, ErrIndexRange) {
		t.Errorf("negative: %v, want ErrIndexRange", err)
	}
}
