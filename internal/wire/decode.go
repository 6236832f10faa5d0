package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"cpm/internal/arena"
	"cpm/internal/geom"
	"cpm/internal/model"
)

// Decoders. Each Decode* parses the payload of one frame (header already
// stripped by Reader.Next or ParseFrame) and rejects anything malformed:
// truncated fields, out-of-range ids and kinds, counts larger than the
// bytes present, trailing garbage. Every slice length is validated against
// a per-element minimum size before allocation, so a hostile 4-byte count
// cannot demand gigabytes.

// Arena is the decode arena of one read loop: the Arena methods carve every
// slice of the frames they decode from its internal/arena slabs instead of
// allocating each one. Slices are cap == len, share chunks with the other
// frames decoded through the arena, and stay valid for as long as they are
// held — chunks are handed off with the frames and never reused — so they
// are read-only to their holder, and a holder that keeps one indefinitely
// (pinning its chunk) copies it. The zero value is ready; an Arena serves
// one goroutine. The package-level decoders of the same frames decode
// through a nil *Arena, which allocates every slice exactly.
type Arena struct {
	nbrs  arena.Slab[model.Neighbor]
	ids   arena.Slab[model.ObjectID]
	pts   arena.Slab[geom.Point]
	diffs arena.Slab[model.ResultDiff]
	objs  arena.Slab[model.Update]
	qus   arena.Slab[model.QueryUpdate]
}

// dec returns a decoder over p carving from a, or allocating exactly when a
// is nil.
func (a *Arena) dec(p []byte) dec {
	if a == nil {
		return dec{b: p}
	}
	return dec{b: p, nbrs: &a.nbrs, ids: &a.ids, pts: &a.pts, diffs: &a.diffs, objs: &a.objs, qus: &a.qus}
}

// dec is a bounds-checked cursor over a frame payload, with the slabs its
// slices come from (all nil without an arena).
type dec struct {
	b     []byte
	nbrs  *arena.Slab[model.Neighbor]
	ids   *arena.Slab[model.ObjectID]
	pts   *arena.Slab[geom.Point]
	diffs *arena.Slab[model.ResultDiff]
	objs  *arena.Slab[model.Update]
	qus   *arena.Slab[model.QueryUpdate]
}

func (d *dec) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, ErrTruncated
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *dec) varint() (int64, error) {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		return 0, ErrTruncated
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *dec) byte() (byte, error) {
	if len(d.b) < 1 {
		return 0, ErrTruncated
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v, nil
}

func (d *dec) bool() (bool, error) {
	v, err := d.byte()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("%w: bool byte %d", ErrMalformed, v)
	}
}

func (d *dec) uint32() (uint32, error) {
	if len(d.b) < 4 {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v, nil
}

func (d *dec) float() (float64, error) {
	if len(d.b) < 8 {
		return 0, ErrTruncated
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v, nil
}

func (d *dec) point() (geom.Point, error) {
	x, err := d.float()
	if err != nil {
		return geom.Point{}, err
	}
	y, err := d.float()
	if err != nil {
		return geom.Point{}, err
	}
	return geom.Point{X: x, Y: y}, nil
}

// count reads an element count and validates it against the bytes left:
// every element occupies at least minSize bytes, so a count the remaining
// payload cannot possibly hold is malformed, not an allocation request.
func (d *dec) count(minSize int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(d.b)/minSize) {
		return 0, fmt.Errorf("%w: count %d exceeds payload", ErrMalformed, v)
	}
	return int(v), nil
}

func (d *dec) objectID() (model.ObjectID, error) {
	v, err := d.varint()
	if err != nil {
		return 0, err
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, fmt.Errorf("%w: object id %d out of range", ErrMalformed, v)
	}
	return model.ObjectID(v), nil
}

func (d *dec) queryID() (model.QueryID, error) {
	v, err := d.varint()
	if err != nil {
		return 0, err
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, fmt.Errorf("%w: query id %d out of range", ErrMalformed, v)
	}
	return model.QueryID(v), nil
}

func (d *dec) string(maxLen int) (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.b)) {
		return "", ErrTruncated
	}
	if n > uint64(maxLen) {
		return "", fmt.Errorf("%w: string length %d", ErrMalformed, n)
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s, nil
}

// minNeighbor is the smallest wire size of one neighbor: 1-byte varint id
// + 8-byte distance.
const minNeighbor = 9

func (d *dec) neighbors() ([]model.Neighbor, error) {
	n, err := d.count(minNeighbor)
	if err != nil {
		return nil, err
	}
	out := d.nbrs.Make(n)
	for i := range out {
		id, err := d.objectID()
		if err != nil {
			return nil, err
		}
		dist, err := d.float()
		if err != nil {
			return nil, err
		}
		out[i] = model.Neighbor{ID: id, Dist: dist}
	}
	return out, nil
}

func (d *dec) objectIDs() ([]model.ObjectID, error) {
	n, err := d.count(1)
	if err != nil {
		return nil, err
	}
	out := d.ids.Make(n)
	for i := range out {
		id, err := d.objectID()
		if err != nil {
			return nil, err
		}
		out[i] = id
	}
	return out, nil
}

func (d *dec) points() ([]geom.Point, error) {
	n, err := d.count(16)
	if err != nil {
		return nil, err
	}
	out := d.pts.Make(n)
	for i := range out {
		p, err := d.point()
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

func (d *dec) diff() (model.ResultDiff, error) {
	var out model.ResultDiff
	q, err := d.queryID()
	if err != nil {
		return out, err
	}
	kind, err := d.byte()
	if err != nil {
		return out, err
	}
	if kind > uint8(model.DiffRemove) {
		return out, fmt.Errorf("%w: diff kind %d", ErrMalformed, kind)
	}
	out.Query = q
	out.Kind = model.DiffKind(kind)
	if out.Entered, err = d.neighbors(); err != nil {
		return out, err
	}
	if out.Exited, err = d.objectIDs(); err != nil {
		return out, err
	}
	if out.Reranked, err = d.neighbors(); err != nil {
		return out, err
	}
	if out.Kind != model.DiffRemove {
		if out.Result, err = d.neighbors(); err != nil {
			return out, err
		}
	}
	return out, nil
}

// done rejects trailing bytes: a well-formed payload is consumed exactly.
func (d *dec) done() error {
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(d.b))
	}
	return nil
}

// checkMagic consumes and validates the magic of a Hello/Welcome payload.
func checkMagic(d *dec) error {
	m, err := d.uint32()
	if err != nil {
		return err
	}
	if m != Magic {
		return fmt.Errorf("%w: bad magic %#x", ErrMalformed, m)
	}
	return nil
}

// DecodeHello validates a Hello payload and returns its flag bits. The
// flags byte is optional trailing data: frames from peers that predate it
// decode with flags 0.
func DecodeHello(p []byte) (flags uint8, err error) {
	d := dec{b: p}
	if err = checkMagic(&d); err != nil {
		return 0, err
	}
	if len(d.b) > 0 {
		if flags, err = d.byte(); err != nil {
			return 0, err
		}
	}
	return flags, d.done()
}

// DecodeWelcome validates a Welcome payload and returns the server's
// instance identifier. The field is optional trailing data: frames from
// servers that predate it decode with instance 0.
func DecodeWelcome(p []byte) (instance uint64, flags uint8, err error) {
	d := dec{b: p}
	if err = checkMagic(&d); err != nil {
		return 0, 0, err
	}
	if len(d.b) > 0 {
		if instance, err = d.uvarint(); err != nil {
			return 0, 0, err
		}
	}
	// Trailing flags byte: sent only to clients that asked for the
	// tracing extension (HelloTrace); its absence means flags 0.
	if len(d.b) > 0 {
		if flags, err = d.byte(); err != nil {
			return 0, 0, err
		}
	}
	return instance, flags, d.done()
}

// DecodeBootstrap parses an initial-population frame.
func DecodeBootstrap(p []byte) (reqID uint64, objs []BootstrapObject, err error) {
	d := dec{b: p}
	if reqID, err = d.uvarint(); err != nil {
		return 0, nil, err
	}
	n, err := d.count(17) // 1-byte id + 16-byte point
	if err != nil {
		return 0, nil, err
	}
	if n > 0 {
		objs = make([]BootstrapObject, n)
		for i := range objs {
			if objs[i].ID, err = d.objectID(); err != nil {
				return 0, nil, err
			}
			if objs[i].Pos, err = d.point(); err != nil {
				return 0, nil, err
			}
		}
	}
	return reqID, objs, d.done()
}

// DecodeTick parses an update-batch frame.
func DecodeTick(p []byte) (reqID uint64, b model.Batch, err error) {
	return (*Arena)(nil).DecodeTick(p)
}

// DecodeTick is the package-level DecodeTick carving the batch's Objects,
// Queries and NewPoints from the arena.
func (a *Arena) DecodeTick(p []byte) (reqID uint64, b model.Batch, err error) {
	d := a.dec(p)
	if reqID, err = d.uvarint(); err != nil {
		return 0, b, err
	}
	n, err := d.count(18) // id + kind + one point
	if err != nil {
		return 0, b, err
	}
	if n > 0 {
		b.Objects = d.objs.Make(n)
		for i := range b.Objects {
			u := &b.Objects[i]
			if u.ID, err = d.objectID(); err != nil {
				return 0, b, err
			}
			kind, err := d.byte()
			if err != nil {
				return 0, b, err
			}
			if kind > uint8(model.Delete) {
				return 0, b, fmt.Errorf("%w: update kind %d", ErrMalformed, kind)
			}
			u.Kind = model.UpdateKind(kind)
			switch u.Kind {
			case model.Move:
				if u.Old, err = d.point(); err != nil {
					return 0, b, err
				}
				if u.New, err = d.point(); err != nil {
					return 0, b, err
				}
			case model.Insert:
				if u.New, err = d.point(); err != nil {
					return 0, b, err
				}
			case model.Delete:
				if u.Old, err = d.point(); err != nil {
					return 0, b, err
				}
			}
		}
	}
	m, err := d.count(3) // id + kind + empty point list
	if err != nil {
		return 0, b, err
	}
	if m > 0 {
		b.Queries = d.qus.Make(m)
		for i := range b.Queries {
			qu := &b.Queries[i]
			if qu.ID, err = d.queryID(); err != nil {
				return 0, b, err
			}
			kind, err := d.byte()
			if err != nil {
				return 0, b, err
			}
			if kind > uint8(model.QueryTerminate) {
				return 0, b, fmt.Errorf("%w: query update kind %d", ErrMalformed, kind)
			}
			qu.Kind = model.QueryUpdateKind(kind)
			if qu.NewPoints, err = d.points(); err != nil {
				return 0, b, err
			}
		}
	}
	return reqID, b, d.done()
}

// DecodeRegister parses a query-registration frame.
func DecodeRegister(p []byte) (reqID uint64, r Register, err error) {
	d := dec{b: p}
	if reqID, err = d.uvarint(); err != nil {
		return 0, r, err
	}
	if r.ID, err = d.queryID(); err != nil {
		return 0, r, err
	}
	kind, err := d.byte()
	if err != nil {
		return 0, r, err
	}
	if kind >= uint8(kindMax) {
		return 0, r, fmt.Errorf("%w: query kind %d", ErrMalformed, kind)
	}
	r.Kind = QueryKind(kind)
	k, err := d.uvarint()
	if err != nil {
		return 0, r, err
	}
	if k > math.MaxInt32 {
		return 0, r, fmt.Errorf("%w: k %d", ErrMalformed, k)
	}
	r.K = int(k)
	agg, err := d.byte()
	if err != nil {
		return 0, r, err
	}
	if agg > uint8(geom.AggMax) {
		return 0, r, fmt.Errorf("%w: agg %d", ErrMalformed, agg)
	}
	r.Agg = geom.Agg(agg)
	if r.Points, err = d.points(); err != nil {
		return 0, r, err
	}
	switch r.Kind {
	case KindRange:
		if r.Radius, err = d.float(); err != nil {
			return 0, r, err
		}
	case KindConstrained:
		if r.Region.Lo, err = d.point(); err != nil {
			return 0, r, err
		}
		if r.Region.Hi, err = d.point(); err != nil {
			return 0, r, err
		}
	}
	return reqID, r, d.done()
}

// DecodeMoveQuery parses a query-relocation frame.
func DecodeMoveQuery(p []byte) (reqID uint64, id model.QueryID, pts []geom.Point, err error) {
	d := dec{b: p}
	if reqID, err = d.uvarint(); err != nil {
		return 0, 0, nil, err
	}
	if id, err = d.queryID(); err != nil {
		return 0, 0, nil, err
	}
	if pts, err = d.points(); err != nil {
		return 0, 0, nil, err
	}
	return reqID, id, pts, d.done()
}

// decodeReqQuery parses the shared (reqID, queryID) payload.
func decodeReqQuery(p []byte) (reqID uint64, id model.QueryID, err error) {
	d := dec{b: p}
	if reqID, err = d.uvarint(); err != nil {
		return 0, 0, err
	}
	if id, err = d.queryID(); err != nil {
		return 0, 0, err
	}
	return reqID, id, d.done()
}

// DecodeRemoveQuery parses a query-termination frame.
func DecodeRemoveQuery(p []byte) (reqID uint64, id model.QueryID, err error) {
	return decodeReqQuery(p)
}

// DecodeResultReq parses a result-poll request.
func DecodeResultReq(p []byte) (reqID uint64, id model.QueryID, err error) {
	return decodeReqQuery(p)
}

// DecodeSubscribe parses a subscription-open frame.
func DecodeSubscribe(p []byte) (reqID uint64, s Subscribe, err error) {
	d := dec{b: p}
	if reqID, err = d.uvarint(); err != nil {
		return 0, s, err
	}
	subID, err := d.uvarint()
	if err != nil {
		return 0, s, err
	}
	if subID > math.MaxUint32 {
		return 0, s, fmt.Errorf("%w: sub id %d", ErrMalformed, subID)
	}
	s.SubID = uint32(subID)
	buf, err := d.uvarint()
	if err != nil {
		return 0, s, err
	}
	if buf > math.MaxUint32 {
		return 0, s, fmt.Errorf("%w: buffer %d", ErrMalformed, buf)
	}
	s.Buffer = uint32(buf)
	if s.Policy, err = d.byte(); err != nil {
		return 0, s, err
	}
	if s.Policy > 1 {
		return 0, s, fmt.Errorf("%w: policy %d", ErrMalformed, s.Policy)
	}
	flags, err := d.byte()
	if err != nil {
		return 0, s, err
	}
	if flags > 3 {
		return 0, s, fmt.Errorf("%w: subscribe flags %d", ErrMalformed, flags)
	}
	s.Snapshot = flags&1 != 0
	s.Reset = flags&2 != 0
	n, err := d.count(1)
	if err != nil {
		return 0, s, err
	}
	if n > 0 {
		s.Queries = make([]model.QueryID, n)
		for i := range s.Queries {
			if s.Queries[i], err = d.queryID(); err != nil {
				return 0, s, err
			}
		}
	}
	m, err := d.count(2) // query id + seq
	if err != nil {
		return 0, s, err
	}
	if m > 0 {
		s.Resume = make([]ResumePoint, m)
		for i := range s.Resume {
			if s.Resume[i].Query, err = d.queryID(); err != nil {
				return 0, s, err
			}
			if s.Resume[i].Seq, err = d.uvarint(); err != nil {
				return 0, s, err
			}
		}
	}
	return reqID, s, d.done()
}

// DecodeUnsubscribe parses a subscription-close frame.
func DecodeUnsubscribe(p []byte) (reqID uint64, subID uint32, err error) {
	d := dec{b: p}
	if reqID, err = d.uvarint(); err != nil {
		return 0, 0, err
	}
	v, err := d.uvarint()
	if err != nil {
		return 0, 0, err
	}
	if v > math.MaxUint32 {
		return 0, 0, fmt.Errorf("%w: sub id %d", ErrMalformed, v)
	}
	return reqID, uint32(v), d.done()
}

// maxErrLen caps the error string an Ack may carry.
const maxErrLen = 4096

// DecodeAck parses an acknowledgment; errMsg empty means success.
func DecodeAck(p []byte) (reqID uint64, errMsg string, err error) {
	d := dec{b: p}
	if reqID, err = d.uvarint(); err != nil {
		return 0, "", err
	}
	if errMsg, err = d.string(maxErrLen); err != nil {
		return 0, "", err
	}
	return reqID, errMsg, d.done()
}

// DecodeResult parses the answer to a ResultReq.
func DecodeResult(p []byte) (reqID uint64, id model.QueryID, live bool, res []model.Neighbor, err error) {
	d := dec{b: p}
	if reqID, err = d.uvarint(); err != nil {
		return 0, 0, false, nil, err
	}
	if id, err = d.queryID(); err != nil {
		return 0, 0, false, nil, err
	}
	if live, err = d.bool(); err != nil {
		return 0, 0, false, nil, err
	}
	if res, err = d.neighbors(); err != nil {
		return 0, 0, false, nil, err
	}
	return reqID, id, live, res, d.done()
}

// DecodeEvent parses one pushed diff event.
func DecodeEvent(p []byte) (ev Event, err error) {
	return (*Arena)(nil).DecodeEvent(p)
}

// DecodeEvent is the package-level DecodeEvent carving the diff's slices
// from the arena.
func (a *Arena) DecodeEvent(p []byte) (ev Event, err error) {
	d := a.dec(p)
	subID, err := d.uvarint()
	if err != nil {
		return ev, err
	}
	if subID > math.MaxUint32 {
		return ev, fmt.Errorf("%w: sub id %d", ErrMalformed, subID)
	}
	ev.SubID = uint32(subID)
	if ev.Seq, err = d.uvarint(); err != nil {
		return ev, err
	}
	if ev.Diff, err = d.diff(); err != nil {
		return ev, err
	}
	return ev, d.done()
}

// DecodeSnapshot parses one re-sync snapshot frame.
func DecodeSnapshot(p []byte) (s Snapshot, err error) {
	d := dec{b: p}
	subID, err := d.uvarint()
	if err != nil {
		return s, err
	}
	if subID > math.MaxUint32 {
		return s, fmt.Errorf("%w: sub id %d", ErrMalformed, subID)
	}
	s.SubID = uint32(subID)
	if s.Query, err = d.queryID(); err != nil {
		return s, err
	}
	if s.Live, err = d.bool(); err != nil {
		return s, err
	}
	if s.ResumeSeq, err = d.uvarint(); err != nil {
		return s, err
	}
	if s.Result, err = d.neighbors(); err != nil {
		return s, err
	}
	return s, d.done()
}

// DecodeGap parses a lost-events marker frame.
func DecodeGap(p []byte) (g Gap, err error) {
	d := dec{b: p}
	subID, err := d.uvarint()
	if err != nil {
		return g, err
	}
	if subID > math.MaxUint32 {
		return g, fmt.Errorf("%w: sub id %d", ErrMalformed, subID)
	}
	g.SubID = uint32(subID)
	if g.From, err = d.uvarint(); err != nil {
		return g, err
	}
	if g.To, err = d.uvarint(); err != nil {
		return g, err
	}
	return g, d.done()
}

// maxStatName caps the metric name length a Stats frame may carry.
const maxStatName = 256

// DecodeStatsReq parses a metrics-poll request.
func DecodeStatsReq(p []byte) (reqID uint64, err error) {
	d := dec{b: p}
	if reqID, err = d.uvarint(); err != nil {
		return 0, err
	}
	return reqID, d.done()
}

// DecodeStats parses the answer to a StatsReq.
func DecodeStats(p []byte) (reqID uint64, stats []Stat, err error) {
	d := dec{b: p}
	if reqID, err = d.uvarint(); err != nil {
		return 0, nil, err
	}
	n, err := d.count(2) // 1-byte name length + 1-byte value varint
	if err != nil {
		return 0, nil, err
	}
	if n > 0 {
		stats = make([]Stat, n)
		for i := range stats {
			if stats[i].Name, err = d.string(maxStatName); err != nil {
				return 0, nil, err
			}
			if stats[i].Value, err = d.varint(); err != nil {
				return 0, nil, err
			}
		}
	}
	return reqID, stats, d.done()
}

// minDiff is the smallest wire size of one diff: 1-byte query varint +
// kind byte + three (or, for DiffRemove, exactly three) 1-byte zero
// counts.
const minDiff = 5

// DecodeReset parses a state-wipe request frame.
func DecodeReset(p []byte) (reqID uint64, err error) {
	d := dec{b: p}
	if reqID, err = d.uvarint(); err != nil {
		return 0, err
	}
	return reqID, d.done()
}

// DecodeDiffsPhases parses the sync-diffs answer to a mutating request: a
// Diffs frame that may carry the tick-phase trailer of a
// HelloTrace-negotiated connection, four uvarints after the diff list,
// detected by the bytes remaining. A plain Diffs frame decodes with zero
// phases, so one decoder handles both forms.
func DecodeDiffsPhases(p []byte) (reqID uint64, diffs []model.ResultDiff, ph model.PhaseNanos, err error) {
	return (*Arena)(nil).DecodeDiffsPhases(p)
}

// DecodeDiffsPhases is the package-level DecodeDiffsPhases carving the diff
// list and every diff's slices from the arena.
func (a *Arena) DecodeDiffsPhases(p []byte) (reqID uint64, diffs []model.ResultDiff, ph model.PhaseNanos, err error) {
	d := a.dec(p)
	if reqID, err = d.uvarint(); err != nil {
		return 0, nil, ph, err
	}
	n, err := d.count(minDiff)
	if err != nil {
		return 0, nil, ph, err
	}
	if n > 0 {
		diffs = d.diffs.Make(n)
		for i := range diffs {
			if diffs[i], err = d.diff(); err != nil {
				return 0, nil, ph, err
			}
		}
	}
	if len(d.b) > 0 {
		var v [4]uint64
		for i := range v {
			if v[i], err = d.uvarint(); err != nil {
				return 0, nil, model.PhaseNanos{}, err
			}
		}
		ph = model.PhaseNanos{
			Relocate: int64(v[0]), Reeval: int64(v[1]),
			QueryUpd: int64(v[2]), Diff: int64(v[3]),
		}
	}
	return reqID, diffs, ph, d.done()
}

// DecodeTraceCtx parses a trace-context frame.
func DecodeTraceCtx(p []byte) (traceID, spanID uint64, err error) {
	d := dec{b: p}
	if traceID, err = d.uvarint(); err != nil {
		return 0, 0, err
	}
	if spanID, err = d.uvarint(); err != nil {
		return 0, 0, err
	}
	if traceID == 0 {
		return 0, 0, fmt.Errorf("%w: zero trace id", ErrMalformed)
	}
	return traceID, spanID, d.done()
}

// DecodeTracesReq parses a flight-recorder poll (traceID 0 = whole ring).
func DecodeTracesReq(p []byte) (reqID, traceID uint64, err error) {
	d := dec{b: p}
	if reqID, err = d.uvarint(); err != nil {
		return 0, 0, err
	}
	if traceID, err = d.uvarint(); err != nil {
		return 0, 0, err
	}
	return reqID, traceID, d.done()
}

// DecodeTraces parses the answer to a TracesReq. The returned doc aliases
// p — callers that outlive the read buffer must copy it.
func DecodeTraces(p []byte) (reqID uint64, doc []byte, err error) {
	d := dec{b: p}
	if reqID, err = d.uvarint(); err != nil {
		return 0, nil, err
	}
	n, err := d.uvarint()
	if err != nil {
		return 0, nil, err
	}
	if n > uint64(len(d.b)) {
		return 0, nil, ErrTruncated
	}
	doc = d.b[:n]
	d.b = d.b[n:]
	return reqID, doc, d.done()
}

// ParseFrame splits the first complete frame off b: it validates the
// header and returns the frame type, its payload and the bytes following
// the frame. Incomplete input is ErrTruncated — a stream reader retries
// with more bytes (or uses Reader, which blocks instead).
func ParseFrame(b []byte) (t FrameType, payload, rest []byte, err error) {
	if len(b) < headerLen {
		return 0, nil, nil, ErrTruncated
	}
	n := binary.LittleEndian.Uint32(b)
	if n < 2 {
		return 0, nil, nil, fmt.Errorf("%w: length %d", ErrMalformed, n)
	}
	if n > MaxFrame {
		return 0, nil, nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	if uint64(len(b)-4) < uint64(n) {
		return 0, nil, nil, ErrTruncated
	}
	if b[4] != ProtocolVersion {
		return 0, nil, nil, fmt.Errorf("%w: %d", ErrVersion, b[4])
	}
	t = FrameType(b[5])
	if t == frameInvalid || t >= frameMax {
		return 0, nil, nil, fmt.Errorf("%w: frame type %d", ErrMalformed, b[5])
	}
	end := 4 + int(n)
	return t, b[headerLen:end], b[end:], nil
}

// Reader reads frames off a byte stream, reusing one payload buffer: the
// slice Next returns is valid only until the following Next call. Header
// validation matches ParseFrame.
type Reader struct {
	r        io.Reader
	hdr      [headerLen]byte
	buf      []byte
	checksum bool
	armBody  func(owed bool)
}

// NewReader wraps a byte stream (typically a net.Conn or a bufio.Reader
// over one).
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// EnableChecksum switches the reader to checksummed framing: every
// subsequent frame must end in the CRC32-C trailer Seal appends, which is
// verified and stripped before the payload is returned. Call it after the
// handshake once the peer's Hello/Welcome confirmed HelloChecksum (those
// two frames are never sealed). A bad trailer surfaces as ErrChecksum.
func (r *Reader) EnableChecksum() { r.checksum = true }

// ArmBody registers a hook called with owed=true once a frame header has
// arrived (a body is now due) and owed=false when the frame is complete.
// Callers use it to arm a read deadline on the underlying conn: the CRC
// trailer does not cover the length prefix, so a corrupted length that
// overstates the body would otherwise block ReadFull forever on a stream
// whose framing is already lost — the one corruption a checksum cannot
// turn into a prompt error.
func (r *Reader) ArmBody(f func(owed bool)) { r.armBody = f }

// Next reads one frame, blocking until it is complete. A clean EOF on a
// frame boundary is io.EOF; EOF mid-frame is io.ErrUnexpectedEOF.
func (r *Reader) Next() (FrameType, []byte, error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(r.hdr[:])
	if n < 2 {
		return 0, nil, fmt.Errorf("%w: length %d", ErrMalformed, n)
	}
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	if r.hdr[4] != ProtocolVersion {
		return 0, nil, fmt.Errorf("%w: %d", ErrVersion, r.hdr[4])
	}
	t := FrameType(r.hdr[5])
	if t == frameInvalid || t >= frameMax {
		return 0, nil, fmt.Errorf("%w: frame type %d", ErrMalformed, r.hdr[5])
	}
	plen := int(n) - 2
	if cap(r.buf) < plen {
		r.buf = make([]byte, plen)
	}
	r.buf = r.buf[:plen]
	if r.armBody != nil {
		r.armBody(true)
	}
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	if r.armBody != nil {
		r.armBody(false)
	}
	if r.checksum {
		if plen < 4 {
			return 0, nil, fmt.Errorf("%w: %s frame too short for trailer", ErrChecksum, t)
		}
		body := r.buf[:plen-4]
		want := binary.LittleEndian.Uint32(r.buf[plen-4:])
		sum := crc32.Checksum(r.hdr[4:6], castagnoli)
		sum = crc32.Update(sum, castagnoli, body)
		if sum != want {
			return 0, nil, fmt.Errorf("%w: %s frame", ErrChecksum, t)
		}
		return t, body, nil
	}
	return t, r.buf, nil
}
