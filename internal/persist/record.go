// WAL record codec: one Record per committed graph mutation, encoded in a
// compact self-describing binary form. The decoder is deliberately paranoid
// — every length is bounds-checked against the remaining buffer before any
// allocation, because it feeds on bytes that survived a crash (and on fuzz
// input). A record that does not decode cleanly and completely is corrupt.
package persist

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"vadalink/internal/pg"
)

// Op discriminates WAL record types.
type Op byte

// WAL operations, mirroring pg's mutation kinds. Records are
// self-describing (the op byte selects the wire shape), so adding
// OpSetEdgeWeight and OpRemoveNode version-gated the format for free: logs
// written before those ops existed contain only the first three and decode
// unchanged, while old decoders meeting a new op fail loudly as "unknown
// op" instead of misreading it.
const (
	OpAddNode Op = 1 + iota
	OpAddEdge
	OpRemoveEdge
	OpSetEdgeWeight
	OpRemoveNode
	// OpEpoch is a replication-epoch mark, not a graph mutation: ID carries
	// the epoch number, From the sequence number the epoch opened at. It is
	// sequence-neutral (SeqOfGraph stays a pure function of graph state), so
	// recovery intercepts it before graph replay instead of applying it.
	OpEpoch
)

// Record is one logged mutation. IDs are explicit — replay asserts that the
// graph reassigns the same identifiers, so a log applied to the wrong base
// state fails loudly instead of silently weaving a graph that never existed.
type Record struct {
	Op       Op
	ID       int64 // node ID for OpAddNode/OpRemoveNode, edge ID otherwise
	Label    string
	From, To int64   // OpAddEdge only
	W        float64 // OpSetEdgeWeight only: the new share amount
	Props    pg.Properties
}

// Property value type tags.
const (
	tagString byte = 's'
	tagFloat  byte = 'f'
	tagInt    byte = 'i'
	tagBool   byte = 'b'
)

// appendRecord appends the encoding of r to buf and returns the result.
// Unsupported property value types are an error: the WAL must not silently
// drop state it cannot re-create.
func appendRecord(buf []byte, r Record) ([]byte, error) {
	buf = append(buf, byte(r.Op))
	buf = binary.AppendVarint(buf, r.ID)
	switch r.Op {
	case OpAddNode:
		buf = appendString(buf, r.Label)
	case OpAddEdge:
		buf = appendString(buf, r.Label)
		buf = binary.AppendVarint(buf, r.From)
		buf = binary.AppendVarint(buf, r.To)
	case OpRemoveEdge, OpRemoveNode:
		return buf, nil // no label or props logged for removals
	case OpSetEdgeWeight:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.W))
		return buf, nil
	case OpEpoch:
		buf = binary.AppendVarint(buf, r.From)
		return buf, nil
	default:
		return nil, fmt.Errorf("persist: unknown op %d", r.Op)
	}
	buf = binary.AppendUvarint(buf, uint64(len(r.Props)))
	// Sorted keys make the encoding canonical: the same record always
	// produces the same bytes, so decode∘encode is the identity and the
	// fuzz harness can assert it.
	keys := make([]string, 0, len(r.Props))
	for k := range r.Props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := r.Props[k]
		buf = appendString(buf, k)
		switch x := v.(type) {
		case string:
			buf = append(buf, tagString)
			buf = appendString(buf, x)
		case float64:
			buf = append(buf, tagFloat)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		case int64:
			buf = append(buf, tagInt)
			buf = binary.AppendVarint(buf, x)
		case int:
			buf = append(buf, tagInt)
			buf = binary.AppendVarint(buf, int64(x))
		case bool:
			buf = append(buf, tagBool)
			if x {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		default:
			return nil, fmt.Errorf("persist: property %q has unloggable type %T", k, v)
		}
	}
	return buf, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// decodeRecord parses one record payload. The whole buffer must be consumed
// — trailing garbage means the frame length lied, which means corruption.
func decodeRecord(b []byte) (Record, error) {
	d := decoder{b: b}
	var r Record
	op, ok := d.byte()
	if !ok {
		return r, errTruncatedRecord
	}
	r.Op = Op(op)
	if r.ID, ok = d.varint(); !ok {
		return r, errTruncatedRecord
	}
	switch r.Op {
	case OpAddNode:
		if r.Label, ok = d.str(); !ok {
			return r, errTruncatedRecord
		}
	case OpAddEdge:
		if r.Label, ok = d.str(); !ok {
			return r, errTruncatedRecord
		}
		if r.From, ok = d.varint(); !ok {
			return r, errTruncatedRecord
		}
		if r.To, ok = d.varint(); !ok {
			return r, errTruncatedRecord
		}
	case OpRemoveEdge, OpRemoveNode:
		if len(d.b) != d.off {
			return r, fmt.Errorf("persist: %d trailing bytes after record", len(d.b)-d.off)
		}
		return r, nil
	case OpSetEdgeWeight:
		v, ok := d.u64()
		if !ok {
			return r, errTruncatedRecord
		}
		r.W = math.Float64frombits(v)
		if len(d.b) != d.off {
			return r, fmt.Errorf("persist: %d trailing bytes after record", len(d.b)-d.off)
		}
		return r, nil
	case OpEpoch:
		if r.From, ok = d.varint(); !ok {
			return r, errTruncatedRecord
		}
		if len(d.b) != d.off {
			return r, fmt.Errorf("persist: %d trailing bytes after record", len(d.b)-d.off)
		}
		return r, nil
	default:
		return r, fmt.Errorf("persist: unknown op %d", op)
	}
	n, ok := d.uvarint()
	if !ok {
		return r, errTruncatedRecord
	}
	// Each property needs at least 3 bytes (empty key, tag, empty value);
	// a count beyond that is a lie about the buffer.
	if n > uint64(len(d.b)-d.off) {
		return r, fmt.Errorf("persist: property count %d exceeds record size", n)
	}
	if n > 0 {
		r.Props = make(pg.Properties, n)
	}
	for i := uint64(0); i < n; i++ {
		k, ok := d.str()
		if !ok {
			return r, errTruncatedRecord
		}
		tag, ok := d.byte()
		if !ok {
			return r, errTruncatedRecord
		}
		switch tag {
		case tagString:
			v, ok := d.str()
			if !ok {
				return r, errTruncatedRecord
			}
			r.Props[k] = v
		case tagFloat:
			v, ok := d.u64()
			if !ok {
				return r, errTruncatedRecord
			}
			r.Props[k] = math.Float64frombits(v)
		case tagInt:
			v, ok := d.varint()
			if !ok {
				return r, errTruncatedRecord
			}
			r.Props[k] = v
		case tagBool:
			v, ok := d.byte()
			if !ok {
				return r, errTruncatedRecord
			}
			r.Props[k] = v != 0
		default:
			return r, fmt.Errorf("persist: unknown property tag %q", tag)
		}
	}
	if len(d.b) != d.off {
		return r, fmt.Errorf("persist: %d trailing bytes after record", len(d.b)-d.off)
	}
	return r, nil
}

var errTruncatedRecord = fmt.Errorf("persist: truncated record")

// decoder is a bounds-checked cursor over a record payload.
type decoder struct {
	b   []byte
	off int
}

func (d *decoder) byte() (byte, bool) {
	if d.off >= len(d.b) {
		return 0, false
	}
	v := d.b[d.off]
	d.off++
	return v, true
}

func (d *decoder) varint() (int64, bool) {
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		return 0, false
	}
	d.off += n
	return v, true
}

func (d *decoder) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, false
	}
	d.off += n
	return v, true
}

func (d *decoder) str() (string, bool) {
	n, ok := d.uvarint()
	if !ok || n > uint64(len(d.b)-d.off) {
		return "", false
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s, true
}

func (d *decoder) u64() (uint64, bool) {
	if len(d.b)-d.off < 8 {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v, true
}

// recordFor translates a committed pg mutation into its WAL record.
func recordFor(m pg.Mutation) (Record, error) {
	switch m.Kind {
	case pg.MutAddNode:
		return Record{Op: OpAddNode, ID: int64(m.Node.ID), Label: string(m.Node.Label), Props: m.Node.Props}, nil
	case pg.MutAddEdge:
		return Record{Op: OpAddEdge, ID: int64(m.Edge.ID), Label: string(m.Edge.Label),
			From: int64(m.Edge.From), To: int64(m.Edge.To), Props: m.Edge.Props}, nil
	case pg.MutRemoveEdge:
		return Record{Op: OpRemoveEdge, ID: int64(m.Edge.ID)}, nil
	case pg.MutSetEdgeWeight:
		w, ok := m.Edge.Weight()
		if !ok {
			return Record{}, fmt.Errorf("persist: weight edit of edge %d carries no weight", m.Edge.ID)
		}
		return Record{Op: OpSetEdgeWeight, ID: int64(m.Edge.ID), W: w}, nil
	case pg.MutRemoveNode:
		return Record{Op: OpRemoveNode, ID: int64(m.Node.ID)}, nil
	}
	return Record{}, fmt.Errorf("persist: unknown mutation kind %d", m.Kind)
}

// Apply replays one record onto g under the same discipline as recovery:
// the graph must assign exactly the identifiers the record claims, or the
// record does not belong on this base state. The replication follower runs
// every shipped frame through it, so a stream applied out of order — or to
// a replica that silently diverged — fails loudly instead of weaving a
// graph the leader never had.
func Apply(g pg.Mutable, r Record) error { return apply(g, r) }

// apply replays one record onto g, asserting that the graph assigns the
// identifiers the record claims. A mismatch means the log does not belong to
// this base state — corrupt, refuse.
func apply(g pg.Mutable, r Record) error {
	switch r.Op {
	case OpAddNode:
		id := g.AddNode(pg.Label(r.Label), r.Props)
		if int64(id) != r.ID {
			return fmt.Errorf("persist: replayed node got id %d, log says %d", id, r.ID)
		}
	case OpAddEdge:
		id, err := g.AddEdge(pg.Label(r.Label), pg.NodeID(r.From), pg.NodeID(r.To), r.Props)
		if err != nil {
			return fmt.Errorf("persist: replaying edge %d: %w", r.ID, err)
		}
		if int64(id) != r.ID {
			return fmt.Errorf("persist: replayed edge got id %d, log says %d", id, r.ID)
		}
	case OpRemoveEdge:
		if !g.RemoveEdge(pg.EdgeID(r.ID)) {
			return fmt.Errorf("persist: replayed removal of unknown edge %d", r.ID)
		}
	case OpSetEdgeWeight:
		if err := g.SetEdgeWeight(pg.EdgeID(r.ID), r.W); err != nil {
			return fmt.Errorf("persist: replaying weight edit of edge %d: %w", r.ID, err)
		}
	case OpEpoch:
		// Epoch marks are metadata, not mutations: recovery and the
		// replication follower both intercept them before graph replay.
		// Reaching here means an interception was skipped.
		return fmt.Errorf("persist: epoch record reached graph replay (epoch %d)", r.ID)
	case OpRemoveNode:
		// Every incident-edge removal was logged as its own OpRemoveEdge
		// ahead of this record, so the node must be edge-free here. A node
		// that still has live edges means the log is incomplete or out of
		// order — removing them implicitly would silently diverge from the
		// leader's weight-edit/seq accounting, so refuse instead.
		id := pg.NodeID(r.ID)
		if n := len(g.Out(id)) + len(g.In(id)); n > 0 {
			return fmt.Errorf("persist: replayed removal of node %d with %d live incident edges", r.ID, n)
		}
		if !g.RemoveNode(id) {
			return fmt.Errorf("persist: replayed removal of unknown node %d", r.ID)
		}
	default:
		return fmt.Errorf("persist: unknown op %d", r.Op)
	}
	return nil
}
