package message_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/message"
	"repro/internal/sim"
)

type instantLink struct{}

func (instantLink) Latency(_, _ message.SiteID, _ int, _ *rand.Rand) (time.Duration, bool) {
	return 0, false
}

// TestSimChargesEncodedBytes: the simulator passes pointers, but the bytes
// it counts (and charges its link models) for a message are the bytes the
// codec would put on a TCP connection — for every kind.
func TestSimChargesEncodedBytes(t *testing.T) {
	for _, m := range message.CodecSamples() {
		if b, ok := m.(*message.Bcast); ok && b.Payload == nil {
			continue // a decoder edge case: no stack broadcasts nothing
		}
		c := sim.NewCluster(2, instantLink{}, 1)
		c.Runtime(0).Send(1, m)
		st := c.Stats()
		want := int64(len(message.AppendMessage(nil, m)))
		if st.Bytes != want || st.KindBytes[m.Kind()] != want {
			t.Errorf("%v: simulator counted %d bytes (%d by kind), the codec writes %d",
				m.Kind(), st.Bytes, st.KindBytes[m.Kind()], want)
		}
	}
}
