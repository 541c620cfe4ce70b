package milp

import (
	"math"
	"sync"
)

// csrMatrix is the model's constraint matrix in compressed sparse row form,
// row-equilibrated exactly like the dense tableau build used to be: each
// row is divided by its largest structural coefficient magnitude, and the
// scaled right-hand side rides along. It is built once per Solve and read
// by every node solve of the search, which scatters rows from it instead of
// re-walking the model's term lists.
type csrMatrix struct {
	m, nv    int
	rowStart []int // len m+1; nonzeros of row i are cols/vals[rowStart[i]:rowStart[i+1]]
	cols     []int
	vals     []float64 // equilibrated structural coefficients
	rhs      []float64 // equilibrated right-hand sides
	rel      []Rel
}

// buildCSR converts the model's rows into equilibrated CSR form. Duplicate
// variables within a row are merged additively (matching the dense
// scatter's += semantics) and coefficients that cancel to zero are dropped,
// which is exact: a zero entry contributes nothing to any simplex loop.
func buildCSR(mdl *Model) *csrMatrix {
	m := mdl.NumConstraints()
	nv := mdl.NumVars()
	cs := &csrMatrix{
		m:        m,
		nv:       nv,
		rowStart: make([]int, m+1),
		rhs:      make([]float64, m),
		rel:      make([]Rel, m),
	}
	nnz := 0
	for _, row := range mdl.rows {
		nnz += len(row.Terms)
	}
	cs.cols = make([]int, 0, nnz)
	cs.vals = make([]float64, 0, nnz)

	tmp := make([]float64, nv)
	touched := make([]int, 0, 16)
	for i, row := range mdl.rows {
		touched = touched[:0]
		for _, t := range row.Terms {
			j := int(t.Var)
			if tmp[j] == 0 {
				touched = append(touched, j)
			}
			tmp[j] += t.Coeff
		}
		// Ascending column order keeps every scatter and dot product in the
		// same order the dense build used, so arithmetic is reproducible.
		insertionSort(touched)
		scale := 0.0
		for _, j := range touched {
			if av := math.Abs(tmp[j]); av > scale {
				scale = av
			}
		}
		rhs := row.RHS
		if scale > 0 {
			inv := 1 / scale
			for _, j := range touched {
				tmp[j] *= inv
			}
			rhs *= inv
		}
		for _, j := range touched {
			if tmp[j] != 0 {
				cs.cols = append(cs.cols, j)
				cs.vals = append(cs.vals, tmp[j])
			}
			tmp[j] = 0
		}
		cs.rowStart[i+1] = len(cs.cols)
		cs.rhs[i] = rhs
		cs.rel[i] = row.Rel
	}
	return cs
}

// insertionSort sorts a small int slice in place; rows touch a handful of
// variables, so this beats sort.Ints and allocates nothing.
func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// simplexPool recycles simplex working states. A branch-and-bound search
// checks one out for its whole lifetime, so steady-state node solves reuse
// the same flat tableau, bound, and cost arrays and allocate nothing; the
// one-shot LP entry points borrow one per call.
var simplexPool = sync.Pool{New: func() any { return new(simplex) }}

func acquireSimplex() *simplex  { return simplexPool.Get().(*simplex) }
func releaseSimplex(s *simplex) { simplexPool.Put(s) }

// growF returns a float slice of length n, reusing b's backing array when
// it is large enough. Contents are unspecified; callers overwrite fully.
func growF(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

// growI is growF for int slices.
func growI(b []int, n int) []int {
	if cap(b) < n {
		return make([]int, n)
	}
	return b[:n]
}

// growRows is growF for the tableau's row-header slice.
func growRows(b [][]float64, n int) [][]float64 {
	if cap(b) < n {
		return make([][]float64, n)
	}
	return b[:n]
}

// growS is growF for column-status slices.
func growS(b []colStatus, n int) []colStatus {
	if cap(b) < n {
		return make([]colStatus, n)
	}
	return b[:n]
}
