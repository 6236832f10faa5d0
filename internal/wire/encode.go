package wire

import (
	"encoding/binary"
	"hash/crc32"
	"math"

	"cpm/internal/geom"
	"cpm/internal/model"
)

// Encoders. Every Append* function appends one complete frame — header and
// payload — to dst and returns the extended slice, allocating only when
// dst runs out of capacity. Senders that reuse one buffer (dst = dst[:0]
// between frames) therefore encode allocation-free in steady state; the
// frame's length prefix is back-patched once the payload size is known.

// beginFrame appends the header with a zero length placeholder.
func beginFrame(dst []byte, t FrameType) []byte {
	return append(dst, 0, 0, 0, 0, ProtocolVersion, byte(t))
}

// castagnoli is the CRC32-C polynomial table used for HelloChecksum frame
// trailers (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Seal appends the CRC32-C trailer to the frame that starts at index mark
// in dst — covering version, type and payload — and re-patches the length
// prefix to include it. Call it once per frame, after the Append* encoder,
// on connections that negotiated HelloChecksum; the peer's Reader must
// have checksum verification enabled or it will reject the trailer as
// trailing garbage. Like the encoders it allocates only when dst runs out
// of capacity.
func Seal(dst []byte, mark int) []byte {
	sum := crc32.Checksum(dst[mark+4:], castagnoli)
	dst = binary.LittleEndian.AppendUint32(dst, sum)
	binary.LittleEndian.PutUint32(dst[mark:], uint32(len(dst)-mark-4))
	return dst
}

// endFrame back-patches the length field of the frame that started at
// index start in dst.
func endFrame(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendPoint(dst []byte, p geom.Point) []byte {
	return appendFloat(appendFloat(dst, p.X), p.Y)
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendPoints(dst []byte, pts []geom.Point) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(pts)))
	for _, p := range pts {
		dst = appendPoint(dst, p)
	}
	return dst
}

func appendNeighbors(dst []byte, ns []model.Neighbor) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ns)))
	for _, n := range ns {
		dst = binary.AppendVarint(dst, int64(n.ID))
		dst = appendFloat(dst, n.Dist)
	}
	return dst
}

func appendObjectIDs(dst []byte, ids []model.ObjectID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = binary.AppendVarint(dst, int64(id))
	}
	return dst
}

// appendDiff encodes a result diff: query, kind, the three deltas and the
// full result. A DiffRemove carries no result (decoders restore nil).
func appendDiff(dst []byte, d model.ResultDiff) []byte {
	dst = binary.AppendVarint(dst, int64(d.Query))
	dst = append(dst, byte(d.Kind))
	dst = appendNeighbors(dst, d.Entered)
	dst = appendObjectIDs(dst, d.Exited)
	dst = appendNeighbors(dst, d.Reranked)
	if d.Kind != model.DiffRemove {
		dst = appendNeighbors(dst, d.Result)
	}
	return dst
}

// AppendHello appends the connection-opening frame a client sends first.
// flags is a bitmask of Hello* bits (HelloSyncDiffs); peers that predate
// the flags byte omit it, which decodes as 0.
func AppendHello(dst []byte, flags uint8) []byte {
	start := len(dst)
	dst = beginFrame(dst, FrameHello)
	dst = binary.LittleEndian.AppendUint32(dst, Magic)
	dst = append(dst, flags)
	return endFrame(dst, start)
}

// AppendWelcome appends the server's answer to a valid Hello. instance is
// a random per-server-lifetime identifier: a reconnecting peer that sees a
// different instance knows the server restarted and lost all state. Peers
// that predate the field omit it, which decodes as 0.
func AppendWelcome(dst []byte, instance uint64) []byte {
	start := len(dst)
	dst = beginFrame(dst, FrameWelcome)
	dst = binary.LittleEndian.AppendUint32(dst, Magic)
	dst = binary.AppendUvarint(dst, instance)
	return endFrame(dst, start)
}

// AppendWelcomeFlags appends a Welcome frame with a trailing flags byte
// (WelcomeTrace). Only sent to clients whose Hello carried HelloTrace —
// older clients reject trailing bytes, and they never ask.
func AppendWelcomeFlags(dst []byte, instance uint64, flags uint8) []byte {
	start := len(dst)
	dst = beginFrame(dst, FrameWelcome)
	dst = binary.LittleEndian.AppendUint32(dst, Magic)
	dst = binary.AppendUvarint(dst, instance)
	dst = append(dst, flags)
	return endFrame(dst, start)
}

// AppendBootstrap appends an initial-population frame.
func AppendBootstrap(dst []byte, reqID uint64, objs []BootstrapObject) []byte {
	start := len(dst)
	dst = beginFrame(dst, FrameBootstrap)
	dst = binary.AppendUvarint(dst, reqID)
	dst = binary.AppendUvarint(dst, uint64(len(objs)))
	for _, o := range objs {
		dst = binary.AppendVarint(dst, int64(o.ID))
		dst = appendPoint(dst, o.Pos)
	}
	return endFrame(dst, start)
}

// AppendTick appends one update batch. Move updates carry old and new
// positions, Insert only new, Delete only old — the canonical tuples of
// the paper's streams, nothing more.
func AppendTick(dst []byte, reqID uint64, b model.Batch) []byte {
	start := len(dst)
	dst = beginFrame(dst, FrameTick)
	dst = binary.AppendUvarint(dst, reqID)
	dst = binary.AppendUvarint(dst, uint64(len(b.Objects)))
	for _, u := range b.Objects {
		dst = binary.AppendVarint(dst, int64(u.ID))
		dst = append(dst, byte(u.Kind))
		switch u.Kind {
		case model.Move:
			dst = appendPoint(dst, u.Old)
			dst = appendPoint(dst, u.New)
		case model.Insert:
			dst = appendPoint(dst, u.New)
		case model.Delete:
			dst = appendPoint(dst, u.Old)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(b.Queries)))
	for _, q := range b.Queries {
		dst = binary.AppendVarint(dst, int64(q.ID))
		dst = append(dst, byte(q.Kind))
		dst = appendPoints(dst, q.NewPoints)
	}
	return endFrame(dst, start)
}

// AppendRegister appends a query-registration frame.
func AppendRegister(dst []byte, reqID uint64, r Register) []byte {
	start := len(dst)
	dst = beginFrame(dst, FrameRegister)
	dst = binary.AppendUvarint(dst, reqID)
	dst = binary.AppendVarint(dst, int64(r.ID))
	dst = append(dst, byte(r.Kind))
	dst = binary.AppendUvarint(dst, uint64(r.K))
	dst = append(dst, byte(r.Agg))
	dst = appendPoints(dst, r.Points)
	switch r.Kind {
	case KindRange:
		dst = appendFloat(dst, r.Radius)
	case KindConstrained:
		dst = appendPoint(dst, r.Region.Lo)
		dst = appendPoint(dst, r.Region.Hi)
	}
	return endFrame(dst, start)
}

// AppendMoveQuery appends a query-relocation frame.
func AppendMoveQuery(dst []byte, reqID uint64, id model.QueryID, pts []geom.Point) []byte {
	start := len(dst)
	dst = beginFrame(dst, FrameMoveQuery)
	dst = binary.AppendUvarint(dst, reqID)
	dst = binary.AppendVarint(dst, int64(id))
	dst = appendPoints(dst, pts)
	return endFrame(dst, start)
}

// AppendRemoveQuery appends a query-termination frame.
func AppendRemoveQuery(dst []byte, reqID uint64, id model.QueryID) []byte {
	start := len(dst)
	dst = beginFrame(dst, FrameRemoveQuery)
	dst = binary.AppendUvarint(dst, reqID)
	dst = binary.AppendVarint(dst, int64(id))
	return endFrame(dst, start)
}

// AppendResultReq appends a result-poll request.
func AppendResultReq(dst []byte, reqID uint64, id model.QueryID) []byte {
	start := len(dst)
	dst = beginFrame(dst, FrameResultReq)
	dst = binary.AppendUvarint(dst, reqID)
	dst = binary.AppendVarint(dst, int64(id))
	return endFrame(dst, start)
}

// AppendSubscribe appends a subscription-open frame.
func AppendSubscribe(dst []byte, reqID uint64, s Subscribe) []byte {
	start := len(dst)
	dst = beginFrame(dst, FrameSubscribe)
	dst = binary.AppendUvarint(dst, reqID)
	dst = binary.AppendUvarint(dst, uint64(s.SubID))
	dst = binary.AppendUvarint(dst, uint64(s.Buffer))
	dst = append(dst, s.Policy)
	var flags byte
	if s.Snapshot {
		flags |= 1
	}
	if s.Reset {
		flags |= 2
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(s.Queries)))
	for _, id := range s.Queries {
		dst = binary.AppendVarint(dst, int64(id))
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.Resume)))
	for _, rp := range s.Resume {
		dst = binary.AppendVarint(dst, int64(rp.Query))
		dst = binary.AppendUvarint(dst, rp.Seq)
	}
	return endFrame(dst, start)
}

// AppendUnsubscribe appends a subscription-close frame.
func AppendUnsubscribe(dst []byte, reqID uint64, subID uint32) []byte {
	start := len(dst)
	dst = beginFrame(dst, FrameUnsubscribe)
	dst = binary.AppendUvarint(dst, reqID)
	dst = binary.AppendUvarint(dst, uint64(subID))
	return endFrame(dst, start)
}

// AppendAck appends a request acknowledgment; errMsg empty means success.
func AppendAck(dst []byte, reqID uint64, errMsg string) []byte {
	start := len(dst)
	dst = beginFrame(dst, FrameAck)
	dst = binary.AppendUvarint(dst, reqID)
	dst = appendString(dst, errMsg)
	return endFrame(dst, start)
}

// AppendResult appends the answer to a ResultReq. Live false reports an
// uninstalled query (its result is nil).
func AppendResult(dst []byte, reqID uint64, id model.QueryID, live bool, res []model.Neighbor) []byte {
	start := len(dst)
	dst = beginFrame(dst, FrameResult)
	dst = binary.AppendUvarint(dst, reqID)
	dst = binary.AppendVarint(dst, int64(id))
	dst = appendBool(dst, live)
	dst = appendNeighbors(dst, res)
	return endFrame(dst, start)
}

// AppendEvent appends one pushed diff event — the wire hot path. With a
// reused dst it performs no allocation (BenchmarkWireEncode pins 0
// allocs/op).
func AppendEvent(dst []byte, subID uint32, seq uint64, d model.ResultDiff) []byte {
	start := len(dst)
	dst = beginFrame(dst, FrameEvent)
	dst = binary.AppendUvarint(dst, uint64(subID))
	dst = binary.AppendUvarint(dst, seq)
	dst = appendDiff(dst, d)
	return endFrame(dst, start)
}

// AppendSnapshot appends one re-sync snapshot frame.
func AppendSnapshot(dst []byte, s Snapshot) []byte {
	start := len(dst)
	dst = beginFrame(dst, FrameSnapshot)
	dst = binary.AppendUvarint(dst, uint64(s.SubID))
	dst = binary.AppendVarint(dst, int64(s.Query))
	dst = appendBool(dst, s.Live)
	dst = binary.AppendUvarint(dst, s.ResumeSeq)
	dst = appendNeighbors(dst, s.Result)
	return endFrame(dst, start)
}

// AppendStatsReq appends a metrics-poll request.
func AppendStatsReq(dst []byte, reqID uint64) []byte {
	start := len(dst)
	dst = beginFrame(dst, FrameStatsReq)
	dst = binary.AppendUvarint(dst, reqID)
	return endFrame(dst, start)
}

// AppendStats appends the answer to a StatsReq: a flat list of named
// counter readings.
func AppendStats(dst []byte, reqID uint64, stats []Stat) []byte {
	start := len(dst)
	dst = beginFrame(dst, FrameStats)
	dst = binary.AppendUvarint(dst, reqID)
	dst = binary.AppendUvarint(dst, uint64(len(stats)))
	for _, s := range stats {
		dst = appendString(dst, s.Name)
		dst = binary.AppendVarint(dst, s.Value)
	}
	return endFrame(dst, start)
}

// AppendDiffs appends the sync-diffs answer to a mutating request: the
// result diffs the operation produced, in query-id order.
func AppendDiffs(dst []byte, reqID uint64, diffs []model.ResultDiff) []byte {
	start := len(dst)
	dst = beginFrame(dst, FrameDiffs)
	dst = binary.AppendUvarint(dst, reqID)
	dst = binary.AppendUvarint(dst, uint64(len(diffs)))
	for _, d := range diffs {
		dst = appendDiff(dst, d)
	}
	return endFrame(dst, start)
}

// AppendDiffsPhases appends a Diffs frame extended with the tick-phase
// trailer: four uvarints (relocate, re-eval, query-update, diff
// nanoseconds) after the diff list. Only sent on HelloTrace-negotiated
// connections; DecodeDiffsPhases detects the trailer by the bytes
// remaining, so both forms stay decodable by the same reader.
func AppendDiffsPhases(dst []byte, reqID uint64, diffs []model.ResultDiff, ph model.PhaseNanos) []byte {
	start := len(dst)
	dst = beginFrame(dst, FrameDiffs)
	dst = binary.AppendUvarint(dst, reqID)
	dst = binary.AppendUvarint(dst, uint64(len(diffs)))
	for _, d := range diffs {
		dst = appendDiff(dst, d)
	}
	dst = binary.AppendUvarint(dst, uint64(ph.Relocate))
	dst = binary.AppendUvarint(dst, uint64(ph.Reeval))
	dst = binary.AppendUvarint(dst, uint64(ph.QueryUpd))
	dst = binary.AppendUvarint(dst, uint64(ph.Diff))
	return endFrame(dst, start)
}

// AppendReset appends a state-wipe request frame.
func AppendReset(dst []byte, reqID uint64) []byte {
	start := len(dst)
	dst = beginFrame(dst, FrameReset)
	dst = binary.AppendUvarint(dst, reqID)
	return endFrame(dst, start)
}

// AppendGap appends a lost-events marker frame.
func AppendGap(dst []byte, g Gap) []byte {
	start := len(dst)
	dst = beginFrame(dst, FrameGap)
	dst = binary.AppendUvarint(dst, uint64(g.SubID))
	dst = binary.AppendUvarint(dst, g.From)
	dst = binary.AppendUvarint(dst, g.To)
	return endFrame(dst, start)
}

// AppendTraceCtx appends a trace-context frame: the trace id and parent
// span id that apply to the next request frame on this connection. No
// request id — the frame is positional and unacknowledged (HelloTrace
// connections only).
func AppendTraceCtx(dst []byte, traceID, spanID uint64) []byte {
	start := len(dst)
	dst = beginFrame(dst, FrameTraceCtx)
	dst = binary.AppendUvarint(dst, traceID)
	dst = binary.AppendUvarint(dst, spanID)
	return endFrame(dst, start)
}

// AppendTracesReq appends a flight-recorder poll. traceID 0 asks for the
// whole ring; non-zero asks for one trace.
func AppendTracesReq(dst []byte, reqID, traceID uint64) []byte {
	start := len(dst)
	dst = beginFrame(dst, FrameTracesReq)
	dst = binary.AppendUvarint(dst, reqID)
	dst = binary.AppendUvarint(dst, traceID)
	return endFrame(dst, start)
}

// AppendTraces appends the answer to a TracesReq: the recorder contents
// as a JSON document (the same bytes /debug/traces serves).
func AppendTraces(dst []byte, reqID uint64, doc []byte) []byte {
	start := len(dst)
	dst = beginFrame(dst, FrameTraces)
	dst = binary.AppendUvarint(dst, reqID)
	dst = binary.AppendUvarint(dst, uint64(len(doc)))
	dst = append(dst, doc...)
	return endFrame(dst, start)
}
