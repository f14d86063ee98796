package kernels

import (
	"fmt"

	"repro/internal/job"
	"repro/internal/mem"
)

// Quadtree builds a quad tree over n points in two dimensions (§5.1):
// recursively partition the points into four sets along the midlines of
// the bounding box, reverting to a sequential build below the cutoff
// (paper: 16K points).
type Quadtree struct {
	P, Buf mem.P2D
	// Cutoff is the sequential-build threshold.
	Cutoff int
	// Chunk is the block size of the parallel 4-way split.
	Chunk int
	// MaxDepth stops recursion on pathological point sets.
	MaxDepth int

	// RootNode is the built tree (host-side structure; the data traffic is
	// the point movement, which is fully simulated).
	RootNode *QuadNode
}

// QuadNode is one node of the built tree.
type QuadNode struct {
	X0, Y0, X1, Y1 float64 // bounding box
	Count          int
	Children       [4]*QuadNode // nil for leaves
	Leaf           bool
}

// QuadtreeConfig parameterizes NewQuadtree.
type QuadtreeConfig struct {
	N        int
	Cutoff   int // default 2048
	Chunk    int // default 1024
	MaxDepth int // default 32
	Seed     uint64
}

// NewQuadtree allocates and fills a Quadtree instance in sp with uniform
// random points in the unit square.
func NewQuadtree(sp *mem.Space, cfg QuadtreeConfig) *Quadtree {
	if cfg.N <= 0 {
		panic("kernels: Quadtree requires N > 0")
	}
	if cfg.Cutoff == 0 {
		cfg.Cutoff = 2048
	}
	if cfg.Chunk == 0 {
		cfg.Chunk = 1024
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 32
	}
	k := &Quadtree{
		P:        sp.NewP2D("quad.P", cfg.N),
		Buf:      sp.NewP2D("quad.buf", cfg.N),
		Cutoff:   cfg.Cutoff,
		Chunk:    cfg.Chunk,
		MaxDepth: cfg.MaxDepth,
	}
	fillRandom(k.P.X, cfg.Seed)
	fillRandom(k.P.Y, cfg.Seed+1)
	return k
}

// Name implements Kernel.
func (k *Quadtree) Name() string { return "Quad-Tree" }

// InputBytes implements Kernel.
func (k *Quadtree) InputBytes() int64 { return k.P.Bytes() }

// Root implements Kernel.
func (k *Quadtree) Root() job.Job {
	k.RootNode = &QuadNode{X0: 0, Y0: 0, X1: 1, Y1: 1, Count: k.P.Len()}
	return &quadJob{k: k, p: k.P, buf: k.Buf, node: k.RootNode, depth: 0}
}

// quadrantOf classifies a point against the box midlines.
func quadrantOf(x, y, mx, my float64) int {
	q := 0
	if x >= mx {
		q |= 1
	}
	if y >= my {
		q |= 2
	}
	return q
}

// quadJob partitions its point range into four quadrants and recurses.
type quadJob struct {
	k      *Quadtree
	p, buf mem.P2D
	node   *QuadNode
	depth  int
}

func (q *quadJob) Size(int64) int64 { return int64(q.p.Len()) * 32 }

func (q *quadJob) StrandSize(block int64) int64 {
	if q.p.Len() <= q.k.Cutoff {
		return int64(q.p.Len()) * 16
	}
	return block
}

func (q *quadJob) Run(ctx job.Ctx) {
	n := q.p.Len()
	nd := q.node
	if n <= q.k.Cutoff || q.depth >= q.k.MaxDepth {
		// Sequential build: classify points (reads) without moving them
		// further; record the leaf.
		for i := 0; i < n; i++ {
			q.p.Read(ctx, i)
			ctx.Work(workPerElem)
		}
		nd.Leaf = true
		return
	}
	mx, my := (nd.X0+nd.X1)/2, (nd.Y0+nd.Y1)/2
	distribution[[2]float64]{
		n: n, chunk: q.k.Chunk, buckets: 4,
		elemBytes: 16, elemWork: workPerElem, chunkWork: 1,
		read: func(acc mem.Accessor, i int) [2]float64 {
			x, y := q.p.Read(acc, i)
			return [2]float64{x, y}
		},
		write:  func(acc mem.Accessor, i int, v [2]float64) { q.buf.Write(acc, i, v[0], v[1]) },
		bucket: func(v [2]float64) int { return quadrantOf(v[0], v[1], mx, my) },
	}.fork(ctx, func(ctx job.Ctx, off []int) {
		// Create the four children and recurse on the buffer ranges with
		// the roles of p and buf swapped (ping-pong).
		boxes := [4][4]float64{
			{nd.X0, nd.Y0, mx, my},
			{mx, nd.Y0, nd.X1, my},
			{nd.X0, my, mx, nd.Y1},
			{mx, my, nd.X1, nd.Y1},
		}
		children := make([]job.Job, 0, 4)
		for k := 0; k < 4; k++ {
			lo, hi := off[k], off[k+1]
			child := &QuadNode{X0: boxes[k][0], Y0: boxes[k][1], X1: boxes[k][2], Y1: boxes[k][3], Count: hi - lo}
			nd.Children[k] = child
			if hi == lo {
				child.Leaf = true
				continue
			}
			children = append(children, &quadJob{
				k: q.k, p: q.buf.Sub(lo, hi), buf: q.p.Sub(lo, hi),
				node: child, depth: q.depth + 1,
			})
		}
		if len(children) > 0 {
			ctx.Fork(nil, children...)
		}
	})
}

// Verify implements Kernel: the tree's counts must sum correctly and every
// node's count must match the recursive structure.
func (k *Quadtree) Verify() error {
	if k.RootNode == nil {
		return fmt.Errorf("Quad-Tree: no tree built")
	}
	var walk func(nd *QuadNode, depth int) error
	walk = func(nd *QuadNode, depth int) error {
		if nd.Leaf {
			if nd.Count > k.Cutoff && depth < k.MaxDepth {
				return fmt.Errorf("Quad-Tree: leaf with %d > cutoff %d points at depth %d", nd.Count, k.Cutoff, depth)
			}
			return nil
		}
		sum := 0
		for _, c := range nd.Children {
			if c == nil {
				return fmt.Errorf("Quad-Tree: internal node with missing child (count %d)", nd.Count)
			}
			sum += c.Count
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		if sum != nd.Count {
			return fmt.Errorf("Quad-Tree: node count %d != children sum %d", nd.Count, sum)
		}
		return nil
	}
	if k.RootNode.Count != k.P.Len() {
		return fmt.Errorf("Quad-Tree: root count %d != %d points", k.RootNode.Count, k.P.Len())
	}
	return walk(k.RootNode, 0)
}
