package main

import (
	"reflect"

	"repro/internal/fleet"
)

// selectEventLoop is the only place that touches surface ROADMAP item 1
// deletes. Today fleet.Scenario has an Engine field whose empty default
// is the goroutine engine; once there is one engine the field is gone.
// Setting it through reflection lets this file compile and behave the
// same on both sides of that change.
func selectEventLoop(sc *fleet.Scenario) {
	f := reflect.ValueOf(sc).Elem().FieldByName("Engine")
	if f.IsValid() && f.Kind() == reflect.String {
		f.SetString("eventloop")
	}
}
