package binproto

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// Server speaks the binary protocol over accepted connections,
// scoring batches through one Engine. It carries no per-connection
// state itself — ServeConn owns a connState for the connection's
// lifetime — so one Server instance serves any number of connections.
type Server struct {
	eng *engine.Engine
	log *log.Logger

	// readTimeout is how long ServeConn waits for a whole frame; see
	// frameReadTimeout.
	readTimeout time.Duration

	frames   atomic.Uint64
	requests atomic.Uint64
	errs     atomic.Uint64

	// frameH distributes per-frame service time (read done → response
	// written), nanoseconds; the binary analogue of the HTTP
	// per-endpoint latency histograms.
	frameH obs.Histogram
	// ring, when set, captures slow frames as traces alongside the
	// HTTP surface's slow requests.
	ring *obs.TraceRing
}

// SetTracing attaches a slow-request trace ring. Call before serving
// connections; frames slower than the ring's threshold are recorded
// as "mbsp-<tag>" traces.
func (s *Server) SetTracing(ring *obs.TraceRing) { s.ring = ring }

// frameReadTimeout bounds how long a connection may take to deliver
// its next frame, header and payload together, counted from the end of
// the previous one. It is an idle timeout and a stall timeout in one:
// a peer that goes quiet between frames or in the middle of one is
// closed and its arenas freed, so no connection holds a goroutine and
// its buffers forever. Minutes, not seconds — pooled clients idle.
const frameReadTimeout = 5 * time.Minute

// NewServer returns a binary-protocol server over eng. logger may be
// nil (discards).
func NewServer(eng *engine.Engine, logger *log.Logger) *Server {
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	return &Server{eng: eng, log: logger, readTimeout: frameReadTimeout}
}

// Metrics declares the binary surface's traffic, the analogue of the
// HTTP serving counters: frames served, requests scored, connection
// errors, and the per-frame service time.
func (s *Server) Metrics() obs.List {
	counter := func(key, help string, a *atomic.Uint64) obs.Metric {
		return obs.Metric{Name: "microserve_mbsp_" + key + "_total", Help: help, Kind: obs.KindCounter,
			Block: "mbsp", Key: key, Value: func() float64 { return float64(a.Load()) }}
	}
	return obs.List{
		counter("frames", "Binary-protocol frames served.", &s.frames),
		counter("requests", "Requests scored over the binary protocol.", &s.requests),
		counter("errors", "Binary-protocol connection errors.", &s.errs),
		{Name: "microserve_mbsp_frame_duration_seconds",
			Help: "Binary-protocol frame service time (read done to response written).",
			Kind: obs.KindHistogram, Scale: 1e-9, Hist: &s.frameH},
	}
}

// connState is the per-connection working set: the frame buffer, the
// evidence arena the request batch is decoded into (batch.go) and the
// response batch. Everything is reused frame over frame, so a warm
// connection's score cycle allocates nothing.
type connState struct {
	hdr     [HeaderSize]byte
	payload []byte
	out     []byte

	// tag is the current frame's request tag, echoed in the response
	// header. frameModel and frameItems describe the decoded frame for
	// slow-frame tracing; frameModel aliases the frame buffer and is
	// cloned only when a trace is actually built.
	tag        uint16
	frameModel string
	frameItems int

	batch Batch
	resps []engine.Response

	opt optState
}

// process runs one score cycle with no I/O: decode the payload, score
// the batch, encode the result frame (header included) into st.out.
// Split from ServeConn so the zero-allocation property is testable
// directly with testing.AllocsPerRun.
//
//mb:noalloc
func (s *Server) process(ctx context.Context, st *connState, payload []byte) error {
	reqs, err := st.batch.decodeRequests(payload)
	if err != nil {
		return err
	}
	st.frameItems = len(reqs)
	st.frameModel = ""
	if len(reqs) > 0 {
		st.frameModel = reqs[0].Model
	}
	s.requests.Add(uint64(len(reqs)))
	st.resps = s.eng.ScoreBatchInto(ctx, reqs, st.resps)
	var zeroHdr [HeaderSize]byte
	st.out = append(st.out[:0], zeroHdr[:]...)
	st.out, err = AppendResponses(st.out, st.resps)
	if err != nil {
		return err
	}
	putHeaderTag(st.out, FrameResult, st.tag, len(st.out)-HeaderSize)
	return nil
}

// readFrame reads one frame into the connection buffers, latches its
// request tag into st.tag, and returns its type and payload view.
//
//mb:noalloc
func (st *connState) readFrame(br *bufio.Reader) (byte, []byte, error) {
	if _, err := io.ReadFull(br, st.hdr[:]); err != nil {
		return 0, nil, err
	}
	ftype, tag, n, err := parseHeader(st.hdr[:])
	if err != nil {
		return 0, nil, err
	}
	st.tag = tag
	if cap(st.payload) < n {
		st.payload = make([]byte, n) //mb:allocok capacity miss: first frame this size, then reused
	}
	st.payload = st.payload[:n]
	if _, err := io.ReadFull(br, st.payload); err != nil {
		return 0, nil, fmt.Errorf("binproto: reading %d-byte payload: %w", n, err) //mb:allocok cold error path
	}
	return ftype, st.payload, nil
}

// writeError sends a best-effort error frame echoing the failing
// request's tag; the connection closes right after, so a failed write
// is not itself an error — and a peer that is not reading does not get
// to hold the close up either.
func writeError(conn net.Conn, tag uint16, msg string) {
	if len(msg) > maxStr {
		msg = msg[:maxStr]
	}
	_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
	buf := make([]byte, HeaderSize, HeaderSize+2+len(msg))
	buf, _ = appendStr16(buf, msg)
	putHeaderTag(buf, FrameError, tag, len(buf)-HeaderSize)
	conn.Write(buf)
}

// ServeConn runs the request/response loop until the peer closes, goes
// quiet for longer than the frame read timeout, the context is
// cancelled, or a protocol error makes the stream unrecoverable. It
// owns conn and closes it on return.
func (s *Server) ServeConn(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	if ctx == nil {
		ctx = context.Background()
	}
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	st := &connState{}
	br := bufio.NewReaderSize(conn, 64<<10)
	now := time.Now()
	for {
		// A failed SetReadDeadline means the connection is already dead;
		// the read below reports it.
		_ = conn.SetReadDeadline(now.Add(s.readTimeout))
		ftype, payload, err := st.readFrame(br)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && ctx.Err() == nil {
				s.errs.Add(1)
				s.log.Printf("binproto %s: %v", conn.RemoteAddr(), err)
				writeError(conn, 0, err.Error())
			}
			return
		}
		t0 := time.Now()
		var perr error
		var kind string
		switch ftype {
		case FrameScore:
			s.frames.Add(1)
			kind = "score"
			perr = s.process(ctx, st, payload)
		case FrameOptimize:
			s.frames.Add(1)
			kind = "optimize"
			perr = s.processOptimize(ctx, st, payload)
		default:
			s.errs.Add(1)
			writeError(conn, st.tag, fmt.Sprintf("binproto: unexpected frame type %d (want score or optimize)", ftype))
			return
		}
		if perr != nil {
			s.errs.Add(1)
			s.log.Printf("binproto %s: %v", conn.RemoteAddr(), perr)
			writeError(conn, st.tag, perr.Error())
			return
		}
		if _, err := conn.Write(st.out); err != nil {
			return
		}
		now = time.Now()
		d := now.Sub(t0)
		if d < 0 {
			d = 0
		}
		s.frameH.Record(uint64(d))
		if s.ring != nil && s.ring.Slow(d) {
			s.traceFrame(st, kind, d)
		}
	}
}

// traceFrame records one slow frame into the trace ring. Reached only
// past the ring's threshold, so the ID string, model clone and stage
// slice built here never touch the steady-state frame cycle.
func (s *Server) traceFrame(st *connState, kind string, d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	s.ring.Add(obs.Trace{
		ID:      "mbsp-" + strconv.FormatUint(uint64(st.tag), 10),
		Proto:   "mbsp",
		Kind:    kind,
		Model:   strings.Clone(st.frameModel),
		Items:   st.frameItems,
		UnixMS:  time.Now().UnixMilli(),
		TotalMS: ms,
		Stages:  []obs.Stage{{Name: "frame", MS: ms}},
	})
}
