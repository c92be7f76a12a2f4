package node

// seriesLog accumulates (time, bits) points for rate series. Points are
// stored in fixed-size chunks instead of one doubling slice: a run that
// logs millions of packets allocates one 64 KB chunk per 4096 points and
// never copies old data (the doubling slice used to re-copy the whole
// log ~20 times over a long run, which dominated the emulation's byte
// churn). The chunk-pointer slice is presized from the configured
// duration when the emulation knows it.
//
// The log also keeps running per-bin sums at MeanRate's fixed
// meanRateBin width. Points arrive in time order, so each bin sums the
// same points in the same order as series(meanRateBin) and the sums are
// bit-identical to it.
type seriesLog struct {
	chunks []*seriesChunk
	n      int       // total points
	bins   []float64 // bins[i]: bits logged in [i, i+1)·meanRateBin
}

// meanRateBin is the bin width (s) MeanRate averages over.
const meanRateBin = 0.5

const seriesChunkPoints = 4096

type seriesChunk struct {
	times [seriesChunkPoints]float64
	bits  [seriesChunkPoints]float64
}

// newSeriesLog builds a log, presizing the chunk directory for
// expectedDuration emulated seconds (a saturated 1500 B source at tens
// of Mbps logs on the order of a thousand points per second).
func newSeriesLog(expectedDuration float64) *seriesLog {
	s := &seriesLog{}
	if expectedDuration > 0 {
		est := int(expectedDuration*1000)/seriesChunkPoints + 1
		s.chunks = make([]*seriesChunk, 0, est)
		s.bins = make([]float64, 0, int(expectedDuration/meanRateBin)+2)
	}
	return s
}

func (s *seriesLog) add(t, b float64) {
	i := s.n % seriesChunkPoints
	if i == 0 {
		s.chunks = append(s.chunks, &seriesChunk{})
	}
	c := s.chunks[len(s.chunks)-1]
	c.times[i] = t
	c.bits[i] = b
	s.n++
	bin := int(t / meanRateBin)
	if bin >= len(s.bins) {
		s.growBins(bin)
	}
	s.bins[bin] += b
}

// growBins extends bins to cover index bin. The capacity beyond len was
// never written, so reslicing within it yields zeroed bins.
func (s *seriesLog) growBins(bin int) {
	if bin < cap(s.bins) {
		s.bins = s.bins[:bin+1]
		return
	}
	s.bins = append(s.bins, make([]float64, bin+1-len(s.bins))...)
}

// series bins the log into rates: returns bin midpoints (s) and rates
// (Mbps). Points are visited in insertion (chronological) order, so the
// per-bin float sums match the flat-slice implementation bit for bit.
func (s *seriesLog) series(bin float64) ([]float64, []float64) {
	if s.n == 0 || bin <= 0 {
		return nil, nil
	}
	last := s.chunks[(s.n-1)/seriesChunkPoints]
	end := last.times[(s.n-1)%seriesChunkPoints]
	n := int(end/bin) + 1
	sums := make([]float64, n)
	for ci, c := range s.chunks {
		limit := seriesChunkPoints
		if rem := s.n - ci*seriesChunkPoints; rem < limit {
			limit = rem
		}
		for i := 0; i < limit; i++ {
			idx := int(c.times[i] / bin)
			if idx >= n {
				idx = n - 1
			}
			sums[idx] += c.bits[i]
		}
	}
	ts := make([]float64, n)
	rates := make([]float64, n)
	for i := range sums {
		ts[i] = (float64(i) + 0.5) * bin
		rates[i] = sums[i] / bin / 1e6
	}
	return ts, rates
}
