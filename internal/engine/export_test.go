package engine

// sampleGauge reports how many fit samples (dist.Sample) e's calls hold
// now, and the most they have held at once.
func sampleGauge(e *Engine) (live, peak int64) {
	return e.liveSamples.Load(), e.peakSamples.Load()
}
