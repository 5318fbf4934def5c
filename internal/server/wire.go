package server

import (
	"insightnotes/internal/codec"
	"insightnotes/internal/zoomin"
)

// Wire protocol. Every message is one codec frame (codec.BeginFrame,
// codec.FrameReader) whose kind byte is wireVersion<<4 | kind (kindRequest
// or kindResponse), and whose body is a Request or Response in the codec's
// encoding.
//
// Request body: str kind, str name, str stmt, bool trace, tuple args.
//
// Response body: bool ok, str error, str code, varint retry_after_ms,
// str message, varint qid, str trace_id, uvarint column count + str
// columns, byte stats present + StatsJSON, uvarint trace row count +
// (str stage, tuple values, str summary), section rows. The rows section
// is zoomin's (see zoomin.ReadRow): the spill entry of a SELECT's result
// carries the very same bytes.
//
// A peer that does not speak the protocol — a newline-JSON client, say —
// sends a first byte that makes the length exceed any cap, and is answered
// with FRAME_TOO_LARGE and a close as soon as that byte arrives.
const (
	wireVersion  = 1
	kindRequest  = wireVersion<<4 | 1
	kindResponse = wireVersion<<4 | 2
)

// appendRequestFrame encodes req as one frame, reusing dst's storage.
func appendRequestFrame(dst []byte, req *Request) []byte {
	w := codec.BeginFrame(dst, kindRequest)
	w.Str(req.Kind)
	w.Str(req.Name)
	w.Str(req.Stmt)
	w.Bool(req.Trace)
	w.Tuple(req.Args)
	return codec.EndFrame(w)
}

// decodeRequest parses a request body.
func decodeRequest(body []byte) (Request, error) {
	r := codec.NewReader(body)
	req := Request{Kind: r.Str(), Name: r.Str(), Stmt: r.Str(), Trace: r.Bool(), Args: r.Tuple()}
	if err := r.Done(); err != nil {
		return Request{}, err
	}
	return req, nil
}

// appendResponseFrame encodes resp as one frame, reusing dst's storage.
// The rows are the encoded rows section when the server set one, or else
// Rows.
func appendResponseFrame(dst []byte, resp *Response) []byte {
	w := codec.BeginFrame(dst, kindResponse)
	w.Bool(resp.OK)
	w.Str(resp.Error)
	w.Str(resp.Code)
	w.Varint(resp.RetryAfterMS)
	w.Str(resp.Message)
	w.Varint(int64(resp.QID))
	w.Str(resp.TraceID)
	w.Uvarint(uint64(len(resp.Columns)))
	for _, c := range resp.Columns {
		w.Str(c)
	}
	w.Bool(resp.StatsDetail != nil)
	if s := resp.StatsDetail; s != nil {
		w.Varint(int64(s.Rows))
		w.Varint(s.WallMicros)
		w.Varint(s.OpRows)
		w.Varint(s.Merges)
		w.Varint(s.Curates)
		w.Varint(s.QueueWaitMicros)
		w.Varint(int64(s.StalePending))
		w.Bool(s.Replica)
		w.Uvarint(s.ReplicaLagLSN)
		w.Varint(s.ReplicaLagMS)
		w.Str(s.TraceID)
		w.Uvarint(uint64(len(s.Ops)))
		for _, op := range s.Ops {
			w.Str(op.Op)
			w.Varint(op.Rows)
			w.Varint(op.Merges)
			w.Varint(op.Curates)
			w.Varint(op.WallMicros)
		}
	}
	w.Uvarint(uint64(len(resp.Trace)))
	for _, tr := range resp.Trace {
		w.Str(tr.Stage)
		w.Tuple(tr.Values)
		w.Str(tr.Summary)
	}
	mark := w.BeginSection()
	if resp.rows != nil {
		zoomin.AppendRows(w, resp.rows)
	} else {
		w.Uvarint(uint64(len(resp.Rows)))
		for _, row := range resp.Rows {
			zoomin.AppendRow(w, row.Values, row.Summaries)
		}
	}
	w.EndSection(mark)
	return codec.EndFrame(w)
}

// decodeResponse parses a response body. It also returns the encoded rows
// section, which aliases body.
func decodeResponse(body []byte) (*Response, []byte, error) {
	r := codec.NewReader(body)
	resp := &Response{
		OK: r.Bool(), Error: r.Str(), Code: r.Str(), RetryAfterMS: r.Varint(),
		Message: r.Str(), QID: r.Int(), TraceID: r.Str(),
	}
	if n := r.Count(1); n > 0 {
		resp.Columns = make([]string, n)
		for i := range resp.Columns {
			resp.Columns[i] = r.Str()
		}
	}
	if r.Bool() {
		s := &StatsJSON{
			Rows: r.Int(), WallMicros: r.Varint(), OpRows: r.Varint(), Merges: r.Varint(),
			Curates: r.Varint(), QueueWaitMicros: r.Varint(), StalePending: r.Int(),
			Replica: r.Bool(), ReplicaLagLSN: r.Uvarint(), ReplicaLagMS: r.Varint(), TraceID: r.Str(),
		}
		if n := r.Count(5); n > 0 {
			s.Ops = make([]OpStatJSON, n)
			for i := range s.Ops {
				s.Ops[i] = OpStatJSON{Op: r.Str(), Rows: r.Varint(), Merges: r.Varint(), Curates: r.Varint(), WallMicros: r.Varint()}
			}
		}
		resp.StatsDetail = s
	}
	if n := r.Count(3); n > 0 {
		resp.Trace = make([]TraceRow, n)
		for i := range resp.Trace {
			resp.Trace[i] = TraceRow{Stage: r.Str(), Values: r.Tuple(), Summary: r.Str()}
		}
	}
	section := r.Section()
	if err := r.Done(); err != nil {
		return nil, nil, err
	}
	rr := codec.NewReader(section)
	if n := rr.Count(2); n > 0 {
		resp.Rows = make([]RowJSON, n)
		for i := range resp.Rows {
			resp.Rows[i].Values, resp.Rows[i].Summaries = zoomin.ReadRow(rr)
		}
	}
	if err := rr.Done(); err != nil {
		return nil, nil, err
	}
	return resp, section, nil
}
