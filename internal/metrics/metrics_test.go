package metrics

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/simtime"
)

func sampleAt(tick int64, t simtime.Duration, resid float64, steps int64) Sample {
	return Sample{Tick: tick, Time: t, Residual: resid, ResidualSum: resid, Steps: steps,
		DeltaSteps: 1, BoundMin: 2, BoundMax: 4, BoundMean: 3, LagHist: [LagBuckets]int64{1}}
}

func TestLagBucket(t *testing.T) {
	for _, tc := range []struct{ lag, want int }{
		{-3, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}, {7, 4},
		{8, 5}, {15, 5}, {16, 6}, {31, 6}, {32, 7}, {1000, 7},
	} {
		if got := LagBucket(tc.lag); got != tc.want {
			t.Errorf("LagBucket(%d) = %d, want %d", tc.lag, got, tc.want)
		}
	}
}

func TestNilSeriesSafe(t *testing.T) {
	var s *Series
	s.Record(Sample{})
	if s.Len() != 0 || s.Dropped() != 0 || s.Samples() != nil || s.Interval() != 0 {
		t.Fatal("nil series accessors must return zero values")
	}
	if _, ok := s.Last(); ok {
		t.Fatal("nil series Last must report empty")
	}
}

func TestRingWraparound(t *testing.T) {
	s := NewSeries(simtime.Second, 4)
	for i := int64(0); i < 10; i++ {
		s.Record(sampleAt(i, simtime.Duration(i), 1, i))
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if s.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", s.Dropped())
	}
	got := s.Samples()
	for i, smp := range got {
		if want := int64(6 + i); smp.Tick != want {
			t.Fatalf("sample %d has tick %d, want %d (oldest-first reconstruction)", i, smp.Tick, want)
		}
	}
	last, ok := s.Last()
	if !ok || last.Tick != 9 {
		t.Fatalf("Last = %+v ok=%v, want tick 9", last, ok)
	}
}

func TestSummarizeAndTimeToResidual(t *testing.T) {
	s := NewSeries(simtime.Second, 16)
	resids := []float64{1.0, 0.5, 0.05, 0.01}
	for i, r := range resids {
		smp := sampleAt(int64(i), simtime.Duration(i), r, int64(i+1))
		smp.LagMax = i
		smp.QueueDepth = 10 - i
		s.Record(smp)
	}
	samples := s.Samples()
	last, _ := s.Last()
	if len(samples) != 4 || samples[0].Time != 0 || last.Time != 3 {
		t.Fatalf("bad series bounds: %+v", samples)
	}
	if last.Residual != 0.01 || last.Steps != 4 || last.LagMax != 3 || samples[0].QueueDepth != 10 {
		t.Fatalf("bad last sample: %+v", last)
	}
	at, ok := s.TimeToResidual(0.1)
	if !ok || at != 2 {
		t.Fatalf("TimeToResidual(0.1) = %v, %v; want 2s, true", at, ok)
	}
	if _, ok := s.TimeToResidual(1e-9); ok {
		t.Fatal("TimeToResidual below the floor must report not-reached")
	}
}

func buildSeries() *Series {
	s := NewSeries(simtime.Duration(0.25), 16)
	for i := int64(0); i < 5; i++ {
		smp := sampleAt(i, simtime.Duration(i)*0.25, 1.0/float64(i+1), 2*i)
		smp.GateWait = simtime.Duration(i) * 0.125
		smp.Publishes = i
		smp.StoreVersions = i
		s.Record(smp)
	}
	return s
}

func TestWritersDeterministicAndValid(t *testing.T) {
	var a, b bytes.Buffer
	if err := buildSeries().WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildSeries().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical series wrote different CSV bytes")
	}
	if n, err := ValidateSeries(a.Bytes()); err != nil || n != 5 {
		t.Fatalf("ValidateSeries = %d, %v; want 5, nil", n, err)
	}
}

func TestValidateSeriesRejects(t *testing.T) {
	var csv bytes.Buffer
	if err := buildSeries().WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"empty":           nil,
		"bad header":      []byte("nope,columns\n0,1\n"),
		"short row":       []byte(csvHeader + "\n1,2,3\n"),
		"time regression": bytes.Replace(csv.Bytes(), []byte("\n4,1,"), []byte("\n4,0.1,"), 1),
		"tick regression": bytes.Replace(csv.Bytes(), []byte("\n4,1,"), []byte("\n2,1,"), 1),
		"json":            []byte(`{"interval": 1, "dropped": 0, "samples": []}`),
	} {
		if _, err := ValidateSeries(data); err == nil {
			t.Errorf("ValidateSeries accepted %s", name)
		}
	}
}

// FuzzValidateSeries: the validator never panics, and a file it accepts
// has finite, non-decreasing times and strictly increasing ticks.
func FuzzValidateSeries(f *testing.F) {
	for _, s := range []*Series{buildSeries(), NewSeries(simtime.Second, 4)} {
		var b bytes.Buffer
		if err := s.WriteCSV(&b); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := ValidateSeries(data)
		if err != nil {
			return
		}
		type sample struct {
			Tick int64
			Time float64
		}
		var samples []sample
		data = bytes.TrimLeft(data, " \t\r\n")
		for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n")[1:] {
			cols := strings.Split(line, ",")
			tick, _ := strconv.ParseInt(cols[0], 10, 64)
			tm, _ := strconv.ParseFloat(cols[1], 64)
			samples = append(samples, sample{tick, tm})
		}
		if len(samples) != n {
			t.Fatalf("accepted %d samples, the file holds %d", n, len(samples))
		}
		for i, smp := range samples {
			if math.IsNaN(smp.Time) || math.IsInf(smp.Time, 0) ||
				i > 0 && (smp.Tick <= samples[i-1].Tick || smp.Time < samples[i-1].Time) {
				t.Fatalf("accepted sample %d at tick %v, time %v after %+v", i, smp.Tick, smp.Time, samples[:i])
			}
		}
	})
}

func TestEmptySeriesWriters(t *testing.T) {
	var csv bytes.Buffer
	if err := NewSeries(simtime.Second, 4).WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if n, err := ValidateSeries(csv.Bytes()); err != nil || n != 0 {
		t.Fatalf("empty csv: %d, %v", n, err)
	}
}
