package catalog

import (
	"testing"

	"github.com/lds-storage/lds/internal/leaktest"
)

// The catalog suite spawns no goroutines of its own; the leak check
// proves none outlives its test.
func TestMain(m *testing.M) { leaktest.VerifyTestMain(m) }
