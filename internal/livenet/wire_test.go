package livenet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"log"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/message"
)

// TestFrameRoundTrip writes frames whose length prefixes take one, two and
// three bytes back to back and reads them out of one stream.
func TestFrameRoundTrip(t *testing.T) {
	var msgs []message.Message
	for _, n := range []int{0, 100, 117, 118, 119, 130, 16370, 16390, 70000} {
		msgs = append(msgs, &message.WriteReq{Txn: message.TxnID{Site: 1, Seq: 2}, OpSeq: 1, Key: "key", Value: bytes.Repeat([]byte{'v'}, n)})
	}
	var stream []byte
	var sizes []int
	for _, m := range msgs {
		before := len(stream)
		stream = appendFrame(stream, m)
		sizes = append(sizes, len(stream)-before)
	}
	prefixLens := make(map[int]bool)
	br := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	for i, want := range msgs {
		var wire int
		var err error
		buf, wire, err = readFrame(br, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if wire != sizes[i] {
			t.Fatalf("frame %d: wire size %d, appendFrame wrote %d", i, wire, sizes[i])
		}
		prefixLens[wire-len(buf)] = true
		got, err := message.DecodeMessage(buf)
		if err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		if v := want.(*message.WriteReq); len(v.Value) == 0 {
			v.Value = nil // empty decodes as nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d changed in transit", i)
		}
	}
	if _, _, err := readFrame(br, buf); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
	if !prefixLens[1] || !prefixLens[2] || !prefixLens[3] {
		t.Fatalf("prefix lengths covered: %v, want 1, 2 and 3", prefixLens)
	}
	// A stream that ends inside a frame is an error, not a clean EOF.
	br = bufio.NewReader(bytes.NewReader(stream[:sizes[0]+10]))
	if buf, _, err := readFrame(br, nil); err != nil {
		t.Fatal(err)
	} else if _, _, err = readFrame(br, buf); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn frame: %v, want io.ErrUnexpectedEOF", err)
	}
}

// syncBuffer is a log sink the test can read while the host writes.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startLoggedHost boots site 0 of a two-site address map (site 1 is never
// started: the tests play it over raw connections) and returns its log.
func startLoggedHost(t *testing.T) (*Host, *captureNode, *syncBuffer) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	logs := &syncBuffer{}
	host, err := New(Config{
		ID:       0,
		Addrs:    map[message.SiteID]string{0: ln.Addr().String(), 1: "127.0.0.1:1"},
		Listener: ln,
		Logger:   log.New(logs, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	node := newCaptureNode()
	host.Bind(node)
	if err := host.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(host.Close)
	return host, node, logs
}

// expectClosed waits for the host to close conn on us.
func expectClosed(t *testing.T, name string, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatalf("%s: host sent data instead of closing", name)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("%s: connection not closed", name)
	}
}

// expectLog waits for the read loop's rejection to reach the log (the close
// can be observed a moment before the deferred log line of another case).
func expectLog(t *testing.T, name string, logs *syncBuffer, want string, count int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for strings.Count(logs.String(), want) < count {
		if time.Now().After(deadline) {
			t.Fatalf("%s: log has %d %q lines, want %d:\n%s", name, strings.Count(logs.String(), want), want, count, logs.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHandshakeRejected verifies that connections which fail the hello
// handshake — wrong magic, unknown site, a stray HTTP client, a binary from
// before the binary codec — are closed and logged, and deliver nothing, not
// even a well-formed frame that follows.
func TestHandshakeRejected(t *testing.T) {
	host, node, logs := startLoggedHost(t)
	// What cmd/replicadb at the previous wire version opened a connection
	// with: gob's type definition of hello{Magic uint32; From SiteID}, then
	// the value {"RDB1", 1}.
	oldGobHello := "%\x7f\x03\x01\x01\x05hello\x01\xff\x80\x00\x01\x02\x01\x05Magic\x01\x06\x00\x01\x04From\x01\x04\x00\x00\x00\v\xff\x80\x01\xfcRDB1\x01\x02\x00"
	spoofed := appendFrame(nil, &message.Heartbeat{From: 0})
	cases := []struct{ name, hello string }{
		{"bad magic", "\x00\x00\xde\xad\x00\x00\x00\x00"},
		{"previous magic", "RDB1\x00\x00\x00\x01"},
		{"unknown site", string(appendHello(nil, 42))},
		{"negative site", string(appendHello(nil, -1))},
		{"http client", "GET / HTTP/1.1\r\nHost: replica\r\n\r\n"},
		{"old gob hello", oldGobHello},
	}
	for i, tc := range cases {
		conn, err := net.Dial("tcp", host.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(append([]byte(tc.hello), spoofed...)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		expectClosed(t, tc.name, conn)
		conn.Close()
		expectLog(t, tc.name, logs, "bad handshake", i+1)
	}
	if got := node.countFrom(0) + node.countFrom(1) + node.countFrom(42); got != 0 {
		t.Fatalf("rejected connections delivered %d messages", got)
	}
	if _, received, _ := host.Counters(); received != 0 {
		t.Fatalf("received counter = %d after rejected handshakes", received)
	}
}

// TestHostileFrames plays an authenticated peer that sends a frame the
// host must refuse: the connection is closed, nothing is delivered, and
// the host allocates for the bytes that arrived, not for the length the
// prefix claims.
func TestHostileFrames(t *testing.T) {
	host, node, logs := startLoggedHost(t)
	good := appendFrame(nil, &message.Heartbeat{From: 1})
	padded := append(message.AppendMessage(nil, &message.Heartbeat{From: 1}), 0)
	for i, tc := range []struct {
		name   string
		frame  []byte
		hangUp bool   // the length is within maxFrame, so the host waits for the bytes
		log    string // what the host's refusal says
	}{
		{"2^40 length prefix", binary.AppendUvarint(nil, 1<<40), false, "frame length 1099511627776"},
		{"zero length", []byte{0}, false, "frame length 0"},
		{"512 MiB claimed, 10 bytes sent", append(binary.AppendUvarint(nil, 1<<29), "0123456789"...), true, "unexpected EOF"},
		{"unknown kind", []byte{3, 200, 1, 2}, false, "unknown kind"},
		{"bytes after the message", append([]byte{byte(len(padded))}, padded...), false, "trailing bytes"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		conn, err := net.Dial("tcp", host.Addr())
		if err != nil {
			t.Fatal(err)
		}
		// One good frame first, so the refusal is of the frame, not the peer.
		payload := append(appendHello(nil, 1), good...)
		if _, err := conn.Write(append(payload, tc.frame...)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.hangUp {
			conn.(*net.TCPConn).CloseWrite()
		}
		expectClosed(t, tc.name, conn)
		conn.Close()
		expectLog(t, tc.name, logs, tc.log, 1)
		runtime.ReadMemStats(&after)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 8<<20 {
			t.Fatalf("%s: host allocated %d bytes", tc.name, grown)
		}
		if got := node.countFrom(1); got != i+1 {
			t.Fatalf("%s: %d messages delivered from site 1, want %d (the good frames only)", tc.name, got, i+1)
		}
	}
}
