//go:build !amd64 || purego

package linalg

func (k *microKern) run(kb int, ap, bp, c []float64, ldc int) {
	kernelScalar(kb, ap, bp, c, ldc)
}
