package mpi

import (
	"encoding/binary"

	"portals3/internal/core"
)

// Collective operations over the point-to-point engine. The paper's MPI
// implementations shipped the full MPICH collective stacks; this file
// provides the subset scientific kernels lean on — broadcast, reduce,
// allreduce, gather — using the classic binomial-tree algorithms MPICH
// used at these scales, so collective cost grows as O(log P) messages on
// the latency-bound small sizes the trees are chosen for.

// Reserved tags for collective traffic (above any sane application tag).
const (
	bcastTag  = 0x7FFF0002
	reduceTag = 0x7FFF0003
	gatherTag = 0x7FFF0004
)

// vrank maps a rank into the tree rooted at root.
func vrank(rank, root, size int) int { return (rank - root + size) % size }

// rrank maps back.
func rrank(v, root, size int) int { return (v + root) % size }

// Bcast distributes buf[off:off+n] from root to every rank via a binomial
// tree: receive from the parent, then forward to each subtree child.
func (r *Rank) Bcast(root int, buf core.Region, off, n int) {
	v := vrank(r.rank, root, r.size)
	// Receive from the parent: our virtual rank with its lowest set bit
	// cleared. Scan mask bits low to high until that bit is found.
	mask := 1
	for mask < r.size {
		if v&mask != 0 {
			parent := rrank(v&^mask, root, r.size)
			r.Recv(parent, bcastTag, buf, off, n)
			break
		}
		mask <<= 1
	}
	// Forward to children: all set bits above our lowest set bit.
	mask >>= 1
	for mask > 0 {
		child := v | mask
		if child < r.size && child != v {
			r.Send(rrank(child, root, r.size), bcastTag, buf, off, n)
		}
		mask >>= 1
	}
}

// ReduceOp combines two equal-length operand slices into dst.
type ReduceOp func(dst, src []byte)

// SumUint64 is elementwise addition of little-endian uint64 vectors, the
// workhorse reduction of iterative solvers.
func SumUint64(dst, src []byte) {
	for i := 0; i+8 <= len(dst) && i+8 <= len(src); i += 8 {
		v := binary.LittleEndian.Uint64(dst[i:]) + binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(dst[i:], v)
	}
}

// MaxUint64 is elementwise maximum.
func MaxUint64(dst, src []byte) {
	for i := 0; i+8 <= len(dst) && i+8 <= len(src); i += 8 {
		a := binary.LittleEndian.Uint64(dst[i:])
		b := binary.LittleEndian.Uint64(src[i:])
		if b > a {
			binary.LittleEndian.PutUint64(dst[i:], b)
		}
	}
}

// Reduce combines every rank's buf[off:off+n] with op; the result lands in
// root's buffer (other ranks' buffers hold partial results afterwards,
// like MPI_Reduce's undefined non-root buffers). Binomial tree: each node
// absorbs its children before reporting to its parent.
func (r *Rank) Reduce(root int, op ReduceOp, buf core.Region, off, n int) {
	v := vrank(r.rank, root, r.size)
	mask := 1
	for mask < r.size {
		if v&mask != 0 {
			parent := rrank(v&^mask, root, r.size)
			r.Send(parent, reduceTag, buf, off, n)
			return
		}
		child := v | mask
		if child < r.size {
			scratch, operands := r.collScratch(n, 2*n)
			local, incoming := operands[:n], operands[n:]
			r.Recv(rrank(child, root, r.size), reduceTag, scratch, 0, n)
			buf.ReadAt(off, local)
			scratch.ReadAt(0, incoming)
			op(local, incoming)
			buf.WriteAt(off, local)
		}
		mask <<= 1
	}
}

// collScratch is the receive side's working memory for Reduce and Gather: an
// n-byte region to receive into and nbytes of host memory to combine in.
// Both live on the Rank, taken by the first call that receives and reused by
// every later one, so the senders of a tree (half of all ranks are leaves)
// never pay for them. The region is exactly n bytes, as a fresh one would be:
// its segment count is what the bridges charge DMA commands by.
func (r *Rank) collScratch(n, nbytes int) (core.Region, []byte) {
	if r.scratch == nil || r.scratch.Len() != n {
		r.scratch = r.alloc(n)
	}
	if cap(r.operands) < nbytes {
		r.operands = make([]byte, nbytes)
	}
	return r.scratch, r.operands[:nbytes]
}

// Allreduce is Reduce to rank 0 followed by Bcast — the rendezvous-free
// composition MPICH used at small scale.
func (r *Rank) Allreduce(op ReduceOp, buf core.Region, off, n int) {
	r.Reduce(0, op, buf, off, n)
	r.Bcast(0, buf, off, n)
}

// Gather collects each rank's buf[off:off+n] into root's dst at rank*n.
// Linear algorithm: adequate for the configuration-exchange patterns it
// serves here.
func (r *Rank) Gather(root int, buf core.Region, off, n int, dst core.Region) {
	if r.rank == root {
		scratch, chunk := r.collScratch(n, n)
		buf.ReadAt(off, chunk)
		dst.WriteAt(root*n, chunk)
		for i := 0; i < r.size-1; i++ {
			req := r.Irecv(AnySource, gatherTag, scratch, 0, n)
			req.Wait()
			scratch.ReadAt(0, chunk)
			dst.WriteAt(req.Source*n, chunk)
		}
		return
	}
	r.Send(root, gatherTag, buf, off, n)
}

// Scatter distributes root's src (rank i's slice at i*n) into each rank's
// buf[off:off+n]. Linear, like Gather.
func (r *Rank) Scatter(root int, src core.Region, buf core.Region, off, n int) {
	if r.rank == root {
		chunk := make([]byte, n)
		for i := 0; i < r.size; i++ {
			if i == root {
				src.ReadAt(root*n, chunk)
				buf.WriteAt(off, chunk)
				continue
			}
			r.Send(i, gatherTag, src, i*n, n)
		}
		return
	}
	r.Recv(root, gatherTag, buf, off, n)
}
