// Package wire defines the compact length-prefixed binary protocol of the
// CPM network serving layer: the frames a client and an internal/server
// exchange to feed a remote monitor (bootstrap, update batches, query
// registrations) and to stream results back (acks, polled results, pushed
// diff events, re-sync snapshots and gap markers).
//
// Framing. Every frame is
//
//	uint32 LE  n        number of bytes following this field (2 ≤ n ≤ MaxFrame)
//	byte       version  ProtocolVersion
//	byte       type     FrameType
//	[n-2]byte  payload
//
// Payloads are built from varints (unsigned for counts and sequence
// numbers, zigzag for object and query ids), raw IEEE-754 bits for
// coordinates and distances, and length-prefixed byte strings. By default
// there is no per-frame checksum or compression: the protocol is designed
// for trusted links (TCP on a LAN or localhost) where the transport
// already provides integrity. Peers that cannot trust the link negotiate
// CRC32-C frame trailers with the HelloChecksum flag (see Seal and
// Reader.EnableChecksum); a damaged frame then fails with ErrChecksum
// instead of decoding to silently wrong values.
//
// Encoding is allocation-free by construction: every encoder is an
// append-style function on a caller-owned buffer, so a steady-state sender
// reuses one buffer for its whole lifetime (the acceptance bar is 0
// allocs/op for encoding a result diff). Decoding materializes slices: the
// package-level decoders allocate each one, while a read loop decodes the
// frames of its hot path — Tick, Event, Diffs — through its own Arena,
// which carves them from chunks handed off with the frames. Decoders
// validate every length against the bytes actually present, so truncated
// or malicious frames are rejected with an error before any oversized
// allocation happens (fuzz-tested).
package wire

import (
	"errors"
	"fmt"

	"cpm/internal/geom"
	"cpm/internal/model"
)

// ProtocolVersion is the frame-header version this package speaks. A
// decoder rejects frames of any other version with ErrVersion; breaking
// payload changes must bump it.
const ProtocolVersion = 1

// MaxFrame caps the byte size of a single frame (length field value). A
// full 100K-object bootstrap is ~3.4 MB; 64 MiB leaves an order of
// magnitude of headroom while bounding what a broken peer can make a
// reader buffer.
const MaxFrame = 64 << 20

// headerLen is the fixed prefix of every frame: length + version + type.
const headerLen = 6

// Magic is the value carried by Hello/Welcome frames ("CPMW"), so a peer
// that dialed the wrong port fails fast instead of misparsing garbage.
const Magic = uint32('C') | uint32('P')<<8 | uint32('M')<<16 | uint32('W')<<24

// Decode errors. Wrapped errors carry frame context; test with errors.Is.
var (
	// ErrTruncated reports a frame ending mid-field.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrMalformed reports a structurally invalid frame (bad magic, kind,
	// count or trailing bytes).
	ErrMalformed = errors.New("wire: malformed frame")
	// ErrVersion reports an unsupported frame-header version.
	ErrVersion = errors.New("wire: unsupported protocol version")
	// ErrTooLarge reports a length prefix beyond MaxFrame.
	ErrTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrChecksum reports a frame whose CRC trailer did not verify on a
	// checksum-negotiated connection: the bytes were damaged in transit.
	ErrChecksum = errors.New("wire: frame checksum mismatch")
)

// FrameType identifies a frame's payload layout.
type FrameType uint8

// The frame types of protocol version 1. Hello through Unsubscribe flow
// client→server; Welcome through Gap flow server→client.
const (
	frameInvalid FrameType = iota
	// FrameHello opens a connection: magic + the sender's version.
	FrameHello
	// FrameWelcome accepts a Hello: magic + the accepted version.
	FrameWelcome
	// FrameBootstrap loads the initial object population (remote ingest).
	FrameBootstrap
	// FrameTick carries one update batch — a processing cycle (remote
	// ingest).
	FrameTick
	// FrameRegister installs a query (point, aggregate, constrained or
	// range).
	FrameRegister
	// FrameMoveQuery relocates an installed query.
	FrameMoveQuery
	// FrameRemoveQuery terminates a query.
	FrameRemoveQuery
	// FrameResultReq polls one query's current result.
	FrameResultReq
	// FrameSubscribe opens (or, with resume points, re-opens) a diff
	// stream subscription.
	FrameSubscribe
	// FrameUnsubscribe closes one subscription.
	FrameUnsubscribe
	// FrameAck answers any request frame: ok or an error string.
	FrameAck
	// FrameResult answers a ResultReq with the full current result.
	FrameResult
	// FrameEvent pushes one subscription diff event.
	FrameEvent
	// FrameSnapshot pushes one query's full current result during re-sync.
	FrameSnapshot
	// FrameGap marks lost events: the stream resumed after a drop or a
	// reconnect, and the consumer must re-sync from the next full Result.
	FrameGap
	// FrameStatsReq polls the server's metrics registry (client→server).
	FrameStatsReq
	// FrameStats answers a StatsReq with a flat list of named counters —
	// the same stats the /metrics endpoint exposes as text.
	FrameStats
	// FrameDiffs answers a mutating request (Bootstrap/Tick/Register/
	// MoveQuery/RemoveQuery) on a sync-diffs connection: the result diffs
	// that operation produced, in query-id order. Only sent to peers whose
	// Hello carried HelloSyncDiffs; plain connections get a bare Ack.
	FrameDiffs
	// FrameReset wipes all server state — objects, queries, bootstrap
	// flag — so the peer can re-bootstrap from scratch. Used by a cluster
	// coordinator to re-sync a worker whose state is unknown.
	FrameReset
	// FrameTraceCtx carries distributed-trace context (trace id + parent
	// span id) applying to the next request frame on this connection. It
	// has no request id and gets no reply; a traced op is sent as a
	// TraceCtx frame immediately followed by the request it annotates.
	// Only valid on connections whose Hello carried HelloTrace.
	FrameTraceCtx
	// FrameTracesReq polls the server's trace flight recorder: every
	// recorded trace, or one by id (client→server, HelloTrace only).
	FrameTracesReq
	// FrameTraces answers a TracesReq with the recorded traces as the
	// JSON document the /debug/traces endpoint serves.
	FrameTraces
	frameMax // one past the last valid type
)

// Hello flag bits (the optional trailing byte of a Hello frame; a Hello
// without the byte means flags 0).
const (
	// HelloSyncDiffs asks the server to answer each successful mutating
	// request with a Diffs frame (the diffs that operation produced)
	// instead of a bare Ack. A cluster coordinator uses this to collect
	// per-worker diffs deterministically, request by request.
	HelloSyncDiffs uint8 = 1 << 0
	// HelloChecksum negotiates CRC32-C frame trailers: every frame either
	// peer sends after the handshake carries a 4-byte checksum (see Seal),
	// and the receiver verifies it before decoding. The Hello and Welcome
	// frames themselves are never checksummed — they complete before the
	// mode is agreed. Turn this on for links that may corrupt bytes (WAN
	// hops, chaos proxies); the default-off keeps LAN encoding 0-alloc
	// work identical to protocol version 1 peers.
	HelloChecksum uint8 = 1 << 1
	// HelloTrace negotiates the distributed-tracing extension: the client
	// may precede request frames with TraceCtx frames and poll the trace
	// flight recorder, the server echoes WelcomeTrace in a trailing
	// Welcome flags byte, and Diffs replies carry a tick-phase trailer.
	// Old servers ignore the unknown flag bit and old clients never set
	// it, so mixed-version peers interoperate (the Welcome grows its
	// flags byte only toward clients that asked).
	HelloTrace uint8 = 1 << 2
)

// Welcome flag bits (the optional trailing byte of a Welcome frame, sent
// only to clients whose Hello carried HelloTrace; absence means flags 0).
const (
	// WelcomeTrace confirms the server understands the tracing extension:
	// TraceCtx/TracesReq frames are accepted and Diffs replies carry the
	// phase trailer.
	WelcomeTrace uint8 = 1 << 0
)

// String returns a short name for the frame type.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameWelcome:
		return "welcome"
	case FrameBootstrap:
		return "bootstrap"
	case FrameTick:
		return "tick"
	case FrameRegister:
		return "register"
	case FrameMoveQuery:
		return "movequery"
	case FrameRemoveQuery:
		return "removequery"
	case FrameResultReq:
		return "resultreq"
	case FrameSubscribe:
		return "subscribe"
	case FrameUnsubscribe:
		return "unsubscribe"
	case FrameAck:
		return "ack"
	case FrameResult:
		return "result"
	case FrameEvent:
		return "event"
	case FrameSnapshot:
		return "snapshot"
	case FrameGap:
		return "gap"
	case FrameStatsReq:
		return "statsreq"
	case FrameStats:
		return "stats"
	case FrameDiffs:
		return "diffs"
	case FrameReset:
		return "reset"
	case FrameTraceCtx:
		return "tracectx"
	case FrameTracesReq:
		return "tracesreq"
	case FrameTraces:
		return "traces"
	default:
		return fmt.Sprintf("frametype(%d)", uint8(t))
	}
}

// QueryKind selects the registration flavor of a Register frame.
type QueryKind uint8

// The query kinds a server can install; they map 1:1 onto the cpm.Monitor
// registration methods.
const (
	// KindPoint is a conventional k-NN query: one point, K.
	KindPoint QueryKind = iota
	// KindAgg is an aggregate k-NN query: m points, K, Agg.
	KindAgg
	// KindConstrained is a k-NN query restricted to Region: one point, K.
	KindConstrained
	// KindRange is a continuous range query: one point, Radius; K unused.
	KindRange
	kindMax
)

// BootstrapObject is one entry of the initial population.
type BootstrapObject struct {
	ID  model.ObjectID
	Pos geom.Point
}

// Register is the payload of a Register frame.
type Register struct {
	ID     model.QueryID
	Kind   QueryKind
	K      int
	Agg    geom.Agg // KindAgg only
	Points []geom.Point
	Radius float64   // KindRange only
	Region geom.Rect // KindConstrained only
}

// ResumePoint tells the server the last event sequence number a
// reconnecting subscriber saw for one query, so the server can mark the
// gap and replay a fresh snapshot.
type ResumePoint struct {
	Query model.QueryID
	Seq   uint64
}

// Subscribe is the payload of a Subscribe frame. SubID is chosen by the
// client and scopes every Event/Snapshot/Gap frame of this stream; Buffer
// and Policy configure the server-side notify hub subscription; Queries
// empty means every query.
//
// Three re-sync triggers, combinable: the Snapshot flag (a fresh
// subscription wanting current state) makes the server send full-result
// Snapshot frames before the live stream; the Reset flag (a reconnect)
// additionally makes it announce the stream restart with a reset Gap
// marker first; Resume points (a reconnect that had seen events) pin the
// per-query positions the subscriber last saw, which the server echoes in
// the snapshots. A reconnecting client always sets Reset, with or without
// resume points — Resume alone also implies the reset marker.
type Subscribe struct {
	SubID    uint32
	Buffer   uint32
	Policy   uint8 // notify.Policy: 0 DropOldest, 1 CoalesceLatest
	Snapshot bool
	Reset    bool
	Queries  []model.QueryID
	Resume   []ResumePoint
}

// Event is a decoded Event frame: one pushed result diff of subscription
// SubID, with the subscription's sequence number.
type Event struct {
	SubID uint32
	Seq   uint64
	Diff  model.ResultDiff
}

// Snapshot is a decoded Snapshot frame: one query's full current result,
// sent while (re-)syncing a subscription. Live false reports a query that
// is no longer installed (terminated while the subscriber was away).
// ResumeSeq echoes the resume point that triggered the snapshot (0 for
// snapshot-on-subscribe).
type Snapshot struct {
	SubID     uint32
	Query     model.QueryID
	Live      bool
	ResumeSeq uint64
	Result    []model.Neighbor
}

// Stat is one named integer metric reading of a Stats frame. Names are the
// expanded registry names (histograms appear as name_count, name_p50_ns,
// …); values are raw integers in the metric's documented unit.
type Stat struct {
	Name  string
	Value int64
}

// Gap is a decoded Gap frame: events of subscription SubID were lost. To
// is the sequence number of the next live event when known (in-stream
// drops under the DropOldest/CoalesceLatest policies, From the last
// delivered seq), or 0 when the stream restarted from scratch (reconnect
// resume: sequence numbering resets and snapshots follow).
type Gap struct {
	SubID    uint32
	From, To uint64
}
