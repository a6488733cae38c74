package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary format:
//
//	magic   uint32  'A','M','R','G'
//	version uint32  1
//	nodes   uint64
//	flags   uint32  bit0: weighted
//	per node: degree uint32, then degree × (neighbor uint32 [, weight float64])
//
// The format is little-endian throughout and intentionally simple: it
// exists so cmd/graphgen can persist Table II graphs and so tests can
// round-trip them; it is not a general graph interchange format.

const (
	magic         = 0x414d5247 // "AMRG"
	formatVersion = 1
	flagWeighted  = 1 << 0
)

// Write serializes g to w in the package binary format.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	var flags uint32
	if g.Weights != nil {
		flags |= flagWeighted
	}
	hdr := []any{uint32(magic), uint32(formatVersion), uint64(g.NumNodes()), flags}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return fmt.Errorf("graph: write header: %w", err)
		}
	}
	var buf [8]byte
	for u, adj := range g.Out {
		binary.LittleEndian.PutUint32(buf[:4], uint32(len(adj)))
		if _, err := bw.Write(buf[:4]); err != nil {
			return fmt.Errorf("graph: write node %d: %w", u, err)
		}
		for i, v := range adj {
			binary.LittleEndian.PutUint32(buf[:4], uint32(v))
			if _, err := bw.Write(buf[:4]); err != nil {
				return fmt.Errorf("graph: write node %d: %w", u, err)
			}
			if g.Weights != nil {
				binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(g.Weights[u][i]))
				if _, err := bw.Write(buf[:8]); err != nil {
					return fmt.Errorf("graph: write node %d: %w", u, err)
				}
			}
		}
	}
	return bw.Flush()
}

// maxPrealloc caps how many table or list entries Read allocates on the
// word of a count it has just decoded; beyond it, storage grows only as
// entries actually arrive, so a short input cannot demand a large
// allocation.
const maxPrealloc = 1 << 16

// Read deserializes a graph written by Write and validates it.
func Read(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var hdr [20]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: read header: %w", err)
	}
	le := binary.LittleEndian
	m, ver, nodes, flags := le.Uint32(hdr[0:]), le.Uint32(hdr[4:]), le.Uint64(hdr[8:]), le.Uint32(hdr[16:])
	if m != magic {
		return nil, fmt.Errorf("graph: bad magic %#x", m)
	}
	if ver != formatVersion {
		return nil, fmt.Errorf("graph: unsupported version %d", ver)
	}
	if nodes > math.MaxInt32 {
		return nil, fmt.Errorf("graph: node count %d exceeds int32", nodes)
	}
	weighted := flags&flagWeighted != 0
	g := &Graph{Out: make([][]NodeID, 0, min(nodes, maxPrealloc))}
	if weighted {
		g.Weights = make([][]float64, 0, min(nodes, maxPrealloc))
	}
	var buf [12]byte
	edge := buf[:4] // neighbor uint32 [, weight float64]
	if weighted {
		edge = buf[:12]
	}
	for u := 0; u < int(nodes); u++ {
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			return nil, fmt.Errorf("graph: read node %d: %w", u, err)
		}
		deg := le.Uint32(buf[:4])
		if uint64(deg) > nodes {
			return nil, fmt.Errorf("graph: node %d degree %d exceeds node count", u, deg)
		}
		adj := make([]NodeID, 0, min(deg, maxPrealloc))
		var ws []float64
		if weighted {
			ws = make([]float64, 0, min(deg, maxPrealloc))
		}
		for i := 0; i < int(deg); i++ {
			if _, err := io.ReadFull(br, edge); err != nil {
				return nil, fmt.Errorf("graph: read node %d edge %d: %w", u, i, err)
			}
			adj = append(adj, NodeID(le.Uint32(edge)))
			if weighted {
				ws = append(ws, math.Float64frombits(le.Uint64(edge[4:])))
			}
		}
		g.Out = append(g.Out, adj)
		if weighted {
			g.Weights = append(g.Weights, ws)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
