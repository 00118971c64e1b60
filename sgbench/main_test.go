package main

import (
	"testing"

	"streamshare/internal/xmlstream"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q2, q3 := quartiles(vs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q2, q3 := quartiles([]float64{16, 1, 8, 2, 4}); q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestCanonicalWalksElementFields(t *testing.T) {
	e := xmlstream.E("sel", xmlstream.T("ra", "125.0"), xmlstream.E("c", xmlstream.T("en", "1.30")))
	if got, want := canonical(e), "<sel><ra>125.0</ra><c><en>1.30</en></c></sel>"; got != want {
		t.Fatalf("canonical = %s, want %s", got, want)
	}
}
