package raftcore

import (
	"reflect"
	"testing"
)

// TestCountersAddCoversEveryField walks Counters by reflection: every field
// must be a uint64 (anything else needs its own folding rule), and with
// every field set to 1 on both sides Add must leave every field at 2 — a
// counter added to the struct but not to Add comes back 1.
func TestCountersAddCoversEveryField(t *testing.T) {
	var one Counters
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Uint64 {
			t.Fatalf("Counters.%s is %s, not uint64: teach Add and this test how to fold it", v.Type().Field(i).Name, v.Field(i).Kind())
		}
		v.Field(i).SetUint(1)
	}
	sum := one
	sum.Add(one)
	s := reflect.ValueOf(sum)
	for i := 0; i < s.NumField(); i++ {
		if got := s.Field(i).Uint(); got != 2 {
			t.Errorf("Add drops Counters.%s: 1+1 = %d", s.Type().Field(i).Name, got)
		}
	}
	if s.NumField() < 12 {
		t.Errorf("walked %d fields, want at least 12", s.NumField())
	}
}
