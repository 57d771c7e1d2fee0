package experiments

import (
	"testing"

	"github.com/lds-storage/lds/internal/leaktest"
)

// The experiments boot gateways, node hosts and fleets and drive them from
// load goroutines; the leak check proves every run tears all of it down.
func TestMain(m *testing.M) { leaktest.VerifyTestMain(m) }
