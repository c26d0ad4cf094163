// Package forecast implements the throughput predictors used by eMPTCP's
// bandwidth predictor (§3.2 of the paper).
//
// The paper predicts per-subflow throughput with the Holt-Winters
// time-series method (double exponential smoothing: a level and a trend
// component), citing He et al. [13] for history-based predictors being more
// accurate than formula-based ones. EWMA and last-value predictors are
// provided as baselines for comparison in tests and ablations.
package forecast

import "math"

// Predictor consumes a series of observations and produces forecasts.
type Predictor interface {
	// Observe feeds one sample.
	Observe(v float64)
	// Predict returns the h-step-ahead forecast. With no observations it
	// returns NaN.
	Predict(h int) float64
	// N returns how many samples have been observed.
	N() int
	// Reset discards all state.
	Reset()
}

// HoltWinters is double exponential smoothing with additive trend
// (Holt's linear method; the paper has no seasonality to exploit at
// RTT-scale sampling). Alpha smooths the level, Beta the trend.
type HoltWinters struct {
	Alpha, Beta float64
	// NonNegative clamps forecasts at zero, appropriate for throughput.
	NonNegative bool

	level, trend float64
	n            int
}

// NewHoltWinters returns a Holt-Winters predictor with the given smoothing
// parameters. Alpha and Beta must lie in (0, 1].
func NewHoltWinters(alpha, beta float64) *HoltWinters {
	if alpha <= 0 || alpha > 1 || beta <= 0 || beta > 1 {
		panic("forecast: Holt-Winters smoothing parameters must be in (0,1]")
	}
	return &HoltWinters{Alpha: alpha, Beta: beta, NonNegative: true}
}

// DefaultThroughput returns the predictor configuration eMPTCP uses for
// subflow throughput: responsive level tracking with a conservative trend.
func DefaultThroughput() *HoltWinters { return NewHoltWinters(0.5, 0.2) }

// Observe feeds one sample.
func (hw *HoltWinters) Observe(v float64) {
	switch hw.n {
	case 0:
		hw.level = v
		hw.trend = 0
	case 1:
		hw.trend = v - hw.level
		hw.level = v
	default:
		prevLevel := hw.level
		hw.level = hw.Alpha*v + (1-hw.Alpha)*(hw.level+hw.trend)
		hw.trend = hw.Beta*(hw.level-prevLevel) + (1-hw.Beta)*hw.trend
	}
	hw.n++
}

// Predict returns the h-step-ahead forecast: level + h·trend.
func (hw *HoltWinters) Predict(h int) float64 {
	if hw.n == 0 {
		return math.NaN()
	}
	if h < 0 {
		h = 0
	}
	f := hw.level + float64(h)*hw.trend
	if hw.NonNegative && f < 0 {
		return 0
	}
	return f
}

// Level returns the current smoothed level.
func (hw *HoltWinters) Level() float64 {
	if hw.n == 0 {
		return math.NaN()
	}
	return hw.level
}

// Trend returns the current smoothed trend per step.
func (hw *HoltWinters) Trend() float64 {
	if hw.n == 0 {
		return math.NaN()
	}
	return hw.trend
}

// N returns the number of observations.
func (hw *HoltWinters) N() int { return hw.n }

// Reset discards all state.
func (hw *HoltWinters) Reset() { hw.level, hw.trend, hw.n = 0, 0, 0 }

// Seed primes the predictor with a prior value as if one observation had
// been made. eMPTCP uses this for never-activated interfaces, which are
// assumed to have non-zero throughput (e.g. 5 Mbps) so the path gets
// probed (§3.2).
func (hw *HoltWinters) Seed(v float64) {
	hw.Reset()
	hw.Observe(v)
}

// EWMA is single exponential smoothing, a baseline predictor.
type EWMA struct {
	Alpha float64
	level float64
	n     int
}

// NewEWMA returns an EWMA predictor. Alpha must lie in (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("forecast: EWMA alpha must be in (0,1]")
	}
	return &EWMA{Alpha: alpha}
}

// Observe feeds one sample.
func (e *EWMA) Observe(v float64) {
	if e.n == 0 {
		e.level = v
	} else {
		e.level = e.Alpha*v + (1-e.Alpha)*e.level
	}
	e.n++
}

// Predict returns the forecast, which for EWMA is the level at any horizon.
func (e *EWMA) Predict(int) float64 {
	if e.n == 0 {
		return math.NaN()
	}
	return e.level
}

// N returns the number of observations.
func (e *EWMA) N() int { return e.n }

// Reset discards all state.
func (e *EWMA) Reset() { e.level, e.n = 0, 0 }

// LastValue predicts the most recent observation, the naive baseline.
type LastValue struct {
	last float64
	n    int
}

// Observe feeds one sample.
func (l *LastValue) Observe(v float64) { l.last = v; l.n++ }

// Predict returns the last observation at any horizon.
func (l *LastValue) Predict(int) float64 {
	if l.n == 0 {
		return math.NaN()
	}
	return l.last
}

// N returns the number of observations.
func (l *LastValue) N() int { return l.n }

// Reset discards all state.
func (l *LastValue) Reset() { l.last, l.n = 0, 0 }

// MAE replays series through p (reset first) and returns the mean absolute
// one-step-ahead forecast error, skipping the warm-up steps where no
// forecast exists. Used to compare predictor quality.
func MAE(p Predictor, series []float64) float64 {
	p.Reset()
	var sum float64
	var n int
	for _, v := range series {
		if p.N() > 0 {
			sum += math.Abs(p.Predict(1) - v)
			n++
		}
		p.Observe(v)
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
