//go:build !amd64

package stl

// Only amd64 has a vector kernel; elsewhere the scalar loops are the one
// path and these are never called.

func haveVectorRows() bool { return false }

func weightedSumsVec(w, xs, y, rho []float64, s *vecSums) {
	panic("stl: no vector LOESS kernel on this architecture")
}

func dataSumsVec(w, xs, y []float64, s *vecSums) {
	panic("stl: no vector LOESS kernel on this architecture")
}
