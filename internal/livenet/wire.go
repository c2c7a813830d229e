package livenet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/message"
)

// The byte stream of one connection (docs/PROTOCOLS.md, "Wire format"):
//
//	hello := "RDB2" | dialer's site id, 4 bytes big-endian
//	frame := uvarint n | message      n = len(message), 1 ≤ n ≤ maxFrame
//
// The hello is sent once by the dialer; frames follow until the connection
// closes. internal/message's codec defines the message bytes.

const (
	// helloMagic guards against cross-protocol connections (a stray HTTP
	// client, a binary from before the binary codec, whose gob stream would
	// otherwise be mis-framed) being mistaken for peers.
	helloMagic = 0x52444232 // "RDB2"
	helloSize  = 8
	// maxFrame is the largest message either end accepts, the ceiling
	// the gob encoding enforced on this wire before.
	maxFrame = 1 << 30
	// ioChunk is the unit of socket I/O: the size of a connection's read
	// buffer, the step by which readFrame extends its buffer ahead of the
	// bytes that have arrived (so a length prefix alone cannot size an
	// allocation), and the size at which a sender writes out a batch it
	// has not finished encoding.
	ioChunk = 64 << 10
	// maxIdleBuf is the largest frame or batch buffer a connection keeps
	// between uses; one grown past it by a state transfer is released.
	maxIdleBuf = 1 << 20
)

// appendHello appends the handshake frame identifying the dialer.
func appendHello(dst []byte, from message.SiteID) []byte {
	dst = binary.BigEndian.AppendUint32(dst, helloMagic)
	return binary.BigEndian.AppendUint32(dst, uint32(from))
}

// readHello consumes the handshake frame and returns the dialer's claimed
// identity.
func readHello(r io.Reader) (message.SiteID, error) {
	var b [helloSize]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	if magic := binary.BigEndian.Uint32(b[:4]); magic != helloMagic {
		return 0, fmt.Errorf("bad magic %#x (first bytes %q)", magic, b[:])
	}
	return message.SiteID(int32(binary.BigEndian.Uint32(b[4:]))), nil
}

// appendFrame appends one length-prefixed message to dst.
func appendFrame(dst []byte, m message.Message) []byte {
	start := len(dst)
	dst = append(dst, 0) // the prefix of a message under 128 bytes, the common case
	dst = message.AppendMessage(dst, m)
	n := len(dst) - start - 1
	if n < 0x80 {
		dst[start] = byte(n)
		return dst
	}
	// Longer prefix: open the extra bytes in front of the message.
	var prefix [binary.MaxVarintLen64]byte
	extra := binary.PutUvarint(prefix[:], uint64(n)) - 1
	dst = append(dst, prefix[:extra]...)
	copy(dst[start+1+extra:], dst[start+1:len(dst)-extra])
	copy(dst[start:], prefix[:extra+1])
	return dst
}

// readFrame reads one frame into buf (reused from the previous frame) and
// returns the message bytes together with the frame's size on the wire.
// buf grows as bytes arrive, never from the length prefix.
func readFrame(br *bufio.Reader, buf []byte) (msg []byte, wire int, err error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return buf[:0], 0, err
	}
	if n == 0 || n > maxFrame {
		return buf[:0], 0, fmt.Errorf("frame length %d outside 1..%d", n, maxFrame)
	}
	buf = buf[:0]
	for len(buf) < int(n) {
		step := min(int(n)-len(buf), ioChunk)
		buf = slices.Grow(buf, step)
		k, err := io.ReadFull(br, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+k]
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF // the stream ended inside a frame
			}
			return buf[:0], 0, err
		}
	}
	var prefix [binary.MaxVarintLen64]byte
	return buf, binary.PutUvarint(prefix[:], n) + int(n), nil
}
