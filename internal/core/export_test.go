package core

// NewScatterKernelAs is NewScatterKernel with the combining buffer's
// representation given, dense or the cache, whatever nv·sizeof(M) selects:
// benchmarks compare the two on one task with it.
func NewScatterKernelAs[V, M any](prog Program[V, M], tp UpdateTransport[M], combine func(a, b M) M, op CombineOp, baseRecs int, nv int64, dense bool) *ScatterKernel[V, M] {
	k := NewScatterKernel(prog, tp, combine, op, baseRecs, nv)
	if combine != nil {
		k.cb = newCombineBuffer(baseRecs, nv, dense, combine, op)
	}
	return k
}
