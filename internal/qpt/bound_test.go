// An external test package: the doubling view lives in internal/testkit,
// which imports vxml and, through it, this package.
package qpt_test

import (
	"errors"
	"testing"
	"time"

	"vxml/internal/qpt"
	"vxml/internal/testkit"
	"vxml/internal/xq"
)

// TestGenerateBoundsExpansion: function expansion doubles the pattern at
// every level of the doubling view, so Generate must stop at qpt.MaxNodes
// rather than build the million nodes 20 levels ask for.
func TestGenerateBoundsExpansion(t *testing.T) {
	generate := func(levels int) error {
		q, err := xq.Parse(testkit.DoublingView(levels))
		if err != nil {
			t.Fatalf("parse %d levels: %v", levels, err)
		}
		_, err = qpt.Generate(q.Body, q.Functions)
		return err
	}
	// Seven levels create about half the bound and still compile.
	if err := generate(7); err != nil {
		t.Fatalf("7 levels: %v", err)
	}
	start := time.Now()
	err := generate(20)
	if !errors.Is(err, qpt.ErrTooManyNodes) {
		t.Fatalf("20 levels: err = %v, want qpt.ErrTooManyNodes", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("20 levels took %v to reject", d)
	}
}
