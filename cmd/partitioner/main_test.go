package main

import (
	"reflect"
	"testing"
)

func TestParseKs(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int
	}{
		{"100,400,1600", []int{100, 400, 1600}},
		{" 4 , 8", []int{4, 8}},
		{"1", []int{1}},
		{"0", nil},
		{"0,-3", nil},
		{"4,-3", nil},
		{"4,x", nil},
		{"", nil},
	} {
		got, err := parseKs(tc.in)
		if tc.want == nil {
			if err == nil {
				t.Errorf("-k %q: accepted as %v", tc.in, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("-k %q: got %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

func TestCheckKs(t *testing.T) {
	for _, tc := range []struct {
		ks    []int
		nodes int
		ok    bool
	}{
		{[]int{8, 16}, 16, true},
		{[]int{1}, 1, true},
		{[]int{17}, 16, false},
		{[]int{8, 17, 4}, 16, false},
		{[]int{100, 400, 1600}, 1000, false},
	} {
		err := checkKs(tc.ks, tc.nodes)
		if (err == nil) != tc.ok {
			t.Errorf("-k %v on %d nodes: error %v, want accepted %v", tc.ks, tc.nodes, err, tc.ok)
		}
	}
}

func TestCheckScale(t *testing.T) {
	for _, tc := range []struct {
		scale int
		ok    bool
	}{{1, true}, {8, true}, {0, false}, {-2, false}} {
		if err := checkScale(tc.scale); (err == nil) != tc.ok {
			t.Errorf("-scale %d: error %v, want accepted %v", tc.scale, err, tc.ok)
		}
	}
}
