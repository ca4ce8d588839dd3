package gossip

import (
	"testing"

	"dedisys/internal/object"
)

// TestWireSizePositive pins the byte-accounting helper experiments size an
// exchange with: a registered payload measures > 0 bytes, a longer one
// more, and a value gob cannot encode 0.
func TestWireSizePositive(t *testing.T) {
	short := WireSize(object.ID("o"))
	if short <= 0 {
		t.Fatalf("a one-byte ID measured %d bytes", short)
	}
	if long := WireSize(object.ID("a-much-longer-object-id")); long <= short {
		t.Fatalf("a longer ID measured %d bytes <= %d", long, short)
	}
	if n := WireSize(make(chan int)); n != 0 {
		t.Fatalf("an unencodable value measured %d bytes", n)
	}
}
