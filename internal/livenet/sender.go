package livenet

import (
	"math/rand"
	"net"
	"time"

	"repro/internal/message"
)

// maxFlushBatch bounds how many messages one drain coalesces, so a deep
// queue cannot arbitrarily delay the first message of the batch.
const maxFlushBatch = 256

// sender owns the outgoing connection to one peer: it dials lazily (with
// jittered exponential backoff), performs the hello handshake, and drains
// its queue in coalesced batches — encode every pending message into one
// reusable buffer, then write it once.
//
// Loss semantics mirror the simulator's lossy FIFO link: a message is never
// duplicated. While disconnected, popped messages are held (not dropped)
// until a connection is established; once a batch has been handed to an
// established connection, a write error loses the whole batch (counted in
// wireLost) because its delivery state is unknowable — retransmitting could
// duplicate, and the protocols already tolerate loss.
type sender struct {
	host  *Host
	to    message.SiteID
	addr  string
	out   chan message.Message
	rng   *rand.Rand // jitter source; touched only by the run goroutine
	stats *peerCounters
}

// run is the sender goroutine.
func (s *sender) run() {
	defer s.host.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	batch := make([]message.Message, 0, maxFlushBatch)
	var buf []byte // the batch's frames; reused across batches
	for {
		select {
		case <-s.host.stop:
			return
		case m := <-s.out:
			batch = append(batch[:0], m)
		drain:
			for len(batch) < maxFlushBatch {
				select {
				case m := <-s.out:
					batch = append(batch, m)
				default:
					break drain
				}
			}
			if conn == nil {
				if conn = s.connect(); conn == nil {
					return // host shut down while dialing
				}
			}
			var err error
			if buf, err = s.writeBatch(conn, buf, batch); err == nil {
				s.stats.sent.Add(int64(len(batch)))
				s.stats.flushBatch.Observe(time.Duration(len(batch)))
			} else {
				s.host.logf("send to %v: %v", s.to, err)
				s.stats.wireLost.Add(int64(len(batch)))
				conn.Close()
				conn = nil
			}
			if cap(buf) > maxIdleBuf {
				buf = nil
			}
		}
	}
}

// writeBatch encodes batch into buf and writes it to conn, returning buf
// for the next batch. That is one Write per batch unless the batch outgrows
// ioChunk: a burst of state-transfer chunks goes out piecewise instead of
// being buffered whole.
func (s *sender) writeBatch(conn net.Conn, buf []byte, batch []message.Message) ([]byte, error) {
	buf = buf[:0]
	for i, m := range batch {
		buf = appendFrame(buf, m)
		if len(buf) < ioChunk && i < len(batch)-1 {
			continue
		}
		if _, err := conn.Write(buf); err != nil {
			return buf, err
		}
		s.stats.bytesSent.Add(int64(len(buf)))
		buf = buf[:0]
	}
	return buf, nil
}

// connect dials s.addr until a connection is established and the hello
// handshake is written, backing off exponentially with ±50% jitter between
// attempts. It returns nil only when the host shuts down.
func (s *sender) connect() net.Conn {
	backoff := s.host.cfg.DialRetry
	for {
		conn, err := s.dialOnce()
		if err == nil {
			s.stats.connects.Add(1)
			return conn
		}
		s.stats.dialErrors.Add(1)
		s.host.logf("dial %v (%s): %v (retry in ~%v)", s.to, s.addr, err, backoff)
		// Full jitter around the current backoff: sleep in [b/2, 3b/2).
		sleep := backoff/2 + time.Duration(s.rng.Int63n(int64(backoff)))
		select {
		case <-s.host.stop:
			return nil
		case <-time.After(sleep):
		}
		backoff *= 2
		if backoff > s.host.cfg.MaxDialRetry {
			backoff = s.host.cfg.MaxDialRetry
		}
	}
}

// dialOnce makes one connection attempt, including the handshake frame.
func (s *sender) dialOnce() (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", s.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	var hello [helloSize]byte
	if _, err := conn.Write(appendHello(hello[:0], s.host.cfg.ID)); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}
