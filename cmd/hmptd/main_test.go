package main

import (
	"strings"
	"testing"
)

// TestMemoBytesRefusesNonPositive: a zero or negative -memo-bytes is
// refused at startup, before the daemon listens.
func TestMemoBytesRefusesNonPositive(t *testing.T) {
	for _, v := range []string{"0", "-1"} {
		err := serve([]string{"-addr", "127.0.0.1:0", "-memo-bytes", v})
		if err == nil || !strings.Contains(err.Error(), "-memo-bytes") {
			t.Errorf("-memo-bytes %s: err = %v, want a refusal", v, err)
		}
	}
}
