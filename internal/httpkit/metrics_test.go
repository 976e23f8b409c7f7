package httpkit

import (
	"fmt"
	"testing"
)

// TestLatencyKeysNameTheirBuckets holds the precomputed histogram keys
// to the bounds they label.
func TestLatencyKeysNameTheirBuckets(t *testing.T) {
	for i, b := range latencyBuckets {
		if want := fmt.Sprintf("le_%gms", b); latencyKeys[i] != want {
			t.Errorf("latencyKeys[%d] = %q, bucket %v is named %q", i, latencyKeys[i], b, want)
		}
	}
}
