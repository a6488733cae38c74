package async

import (
	"reflect"
	"strings"
	"testing"
)

// nonzeroStats builds a RunStats with every field set to a distinct
// non-zero value (via reflection, so a new field cannot be forgotten),
// which is what makes the coverage assertions below non-vacuous.
func nonzeroStats(t *testing.T) *RunStats {
	t.Helper()
	s := &RunStats{}
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 2, 2))
		default:
			t.Fatalf("RunStats.%s has kind %v the stats renderers were never taught; extend nonzeroStats and the renderers",
				v.Type().Field(i).Name, f.Kind())
		}
	}
	return s
}

// TestStatsStringCoversEveryField mirrors the parity harness's
// field-drift test for the textual rendering: every exported RunStats
// field name must appear in String(), so a counter added to RunStats
// cannot silently stay invisible in `asyncmr run` output.
func TestStatsStringCoversEveryField(t *testing.T) {
	s := nonzeroStats(t)
	out := s.String()
	rt := reflect.TypeOf(*s)
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		if !strings.Contains(out, name) {
			t.Errorf("RunStats.String() does not mention field %s:\n%s", name, out)
		}
	}
}
