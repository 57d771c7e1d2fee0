package channet

import (
	"testing"

	"github.com/lds-storage/lds/internal/leaktest"
)

// TestMain fails the suite if any goroutine outlives the tests: an actor
// surviving Network.Close would be one.
func TestMain(m *testing.M) { leaktest.VerifyTestMain(m) }
