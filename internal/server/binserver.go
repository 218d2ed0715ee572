// The binary listener: flayd's second protocol surface. Same versioned
// vocabulary as the HTTP/JSON API (internal/wire), framed as
// length-prefixed binary (internal/wire/binproto) over a raw TCP
// connection, with pipelining: a client may have many writes in flight
// on one connection, matched back by correlation ID.
//
// Connections are session-scoped: after the handshake, the first frame
// must be an Attach naming the session (optionally creating it from a
// catalog program). Every subsequent Write lands on that session. This
// is what makes the front door's job trivial — it routes the Attach and
// then splices bytes.
//
// Attach-create and Write go through the same create and admit as the
// HTTP handlers, and errors answer with the same statusOf. The read
// loop never blocks on the engine: each Write is admitted to the
// session's dispatcher and a bounded number of waiter goroutines
// (binInflight) carry results back to the single writer goroutine,
// which batches frame flushes. Responses may therefore interleave out
// of order — that is the point of correlation IDs.
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"

	"repro/internal/wire"
	"repro/internal/wire/binproto"
)

// binInflight bounds the write requests in flight per connection (the
// pipelining window the server is willing to buffer).
const binInflight = 256

// ServeBin accepts binary-protocol connections until the listener
// closes. Run it in its own goroutine alongside the HTTP server.
func (s *Server) ServeBin(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.serveBinConn(conn)
	}
}

// trackBinConn registers a live connection for Shutdown to close;
// reports false when the server is already draining.
func (s *Server) trackBinConn(conn net.Conn) bool {
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	if draining {
		return false
	}
	s.binMu.Lock()
	s.binConns[conn] = struct{}{}
	s.binMu.Unlock()
	return true
}

func (s *Server) untrackBinConn(conn net.Conn) {
	s.binMu.Lock()
	delete(s.binConns, conn)
	s.binMu.Unlock()
}

func (s *Server) serveBinConn(conn net.Conn) {
	defer conn.Close()
	if !s.trackBinConn(conn) {
		return
	}
	defer s.untrackBinConn(conn)
	s.met.Counter("server.bin_conns").Inc()

	br := bufio.NewReaderSize(conn, 64<<10)
	if err := binproto.ReadHandshake(br); err != nil {
		return
	}
	if err := binproto.WriteHandshake(conn); err != nil {
		return
	}

	// Single writer: waiter goroutines funnel response frames here; the
	// writer flushes when the channel runs dry, batching under load.
	out := make(chan binproto.Frame, binInflight)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		// On a write error, keep draining so waiter goroutines blocked
		// on a full channel always get to finish.
		defer func() {
			for range out {
			}
		}()
		bw := bufio.NewWriterSize(conn, 64<<10)
		for f := range out {
			if err := binproto.WriteFrame(bw, f); err != nil {
				return
			}
			if len(out) == 0 {
				if err := bw.Flush(); err != nil {
					return
				}
			}
		}
		bw.Flush()
	}()
	defer func() { close(out); <-writerDone }()

	sess, ok := s.binAttach(br, out)
	if !ok {
		return
	}
	sem := make(chan struct{}, binInflight)
	defer func() {
		// Wait for in-flight writes so their responses beat the close.
		for i := 0; i < binInflight; i++ {
			sem <- struct{}{}
		}
	}()
	for {
		f, err := binproto.ReadFrame(br)
		if err != nil {
			return
		}
		s.met.Counter("server.bin_frames").Inc()
		switch f.Type {
		case binproto.TWrite:
			if !s.binWrite(sess, f, out, sem) {
				return
			}
		case binproto.TStats:
			payload, err := json.Marshal(wire.FromStats(sess.pipe.Statistics()))
			if err != nil {
				binErr(out, f.Corr, fmt.Errorf("stats: %w", err))
				continue
			}
			out <- binproto.Frame{Type: binproto.TStatsOK, Corr: f.Corr, Payload: payload}
		case binproto.TSnapshot:
			data, err := sess.pipe.Snapshot()
			if err != nil {
				binErr(out, f.Corr, fmt.Errorf("snapshot: %w", err))
				continue
			}
			out <- binproto.Frame{Type: binproto.TSnapshotOK, Corr: f.Corr, Payload: data}
		case binproto.TPing:
			out <- binproto.Frame{Type: binproto.TPong, Corr: f.Corr}
		default:
			// Unknown frame type is a protocol error; drop the conn.
			binErr(out, f.Corr, fmt.Errorf("%w: unexpected frame type %#x", errBadRequest, f.Type))
			return
		}
	}
}

// binAttach consumes the mandatory first frame: Attach resolves (or
// creates, given a catalog) the session the connection is scoped to.
func (s *Server) binAttach(br *bufio.Reader, out chan<- binproto.Frame) (*Session, bool) {
	f, err := binproto.ReadFrame(br)
	if err != nil {
		return nil, false
	}
	if f.Type != binproto.TAttach {
		binErr(out, f.Corr, fmt.Errorf("%w: first frame must be attach, got %#x", errBadRequest, f.Type))
		return nil, false
	}
	a, err := binproto.DecodeAttach(f.Payload)
	if err != nil {
		binErr(out, f.Corr, fmt.Errorf("%w: %w", errBadRequest, err))
		return nil, false
	}
	sess, err := s.session(a.Name)
	created := false
	if err != nil && a.Catalog != "" {
		sess, err = s.create(sessionSpec{name: a.Name, catalog: a.Catalog, exec: a.Exec})
		created = err == nil
		if errors.Is(err, errExists) {
			// Lost a create race: attach to the winner.
			sess, err = s.session(a.Name)
		}
	}
	if err != nil {
		binErr(out, f.Corr, err)
		return nil, false
	}
	out <- binproto.Frame{Type: binproto.TAttachOK, Corr: f.Corr, Payload: binproto.AppendAttachOK(nil, &binproto.AttachOK{
		Name:    sess.name,
		Program: sess.pipe.Name(),
		Epoch:   sess.pipe.Epoch(),
		Created: created,
	})}
	return sess, true
}

// binWrite decodes and admits one pipelined write. Returns false only
// on unrecoverable protocol errors (malformed payload).
func (s *Server) binWrite(sess *Session, f binproto.Frame, out chan<- binproto.Frame, sem chan struct{}) bool {
	w, err := binproto.DecodeWrite(f.Payload)
	if err != nil {
		binErr(out, f.Corr, fmt.Errorf("%w: %w", errBadRequest, err))
		return false
	}
	sem <- struct{}{} // bound in-flight before accepting more frames
	wr, err := s.admit(sess, w.Updates, w.Batch, w.DeadlineMS, w.ReqID)
	if err != nil {
		<-sem
		binErr(out, f.Corr, err)
		return true
	}
	corr := f.Corr
	go func() {
		defer func() { <-sem }()
		resp, err := s.await(sess, wr)
		if err != nil {
			binErr(out, corr, err)
			return
		}
		out <- binproto.Frame{Type: binproto.TWriteOK, Corr: corr, Payload: binproto.AppendWriteOK(nil, &binproto.WriteOK{
			Coalesced: resp.Coalesced,
			Replayed:  resp.Replayed,
			Decisions: resp.Decisions,
		})}
	}()
	return true
}

// binErr emits an error frame carrying the same status + machine code
// the HTTP surface would have answered.
func binErr(out chan<- binproto.Frame, corr uint64, err error) {
	out <- binproto.Frame{Type: binproto.TErr, Corr: corr, Payload: binproto.AppendErrMsg(nil, &binproto.ErrMsg{
		Status: statusOf(err),
		Code:   wire.CodeOf(err),
		Msg:    err.Error(),
	})}
}
