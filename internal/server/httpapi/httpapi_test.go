package httpapi

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/value"
)

// TestJSONValue: every cell marshals, and what a JSON number cannot
// carry — integers beyond ±2^53, NaN, ±Inf — travels as a string.
func TestJSONValue(t *testing.T) {
	for _, tc := range []struct {
		v    value.Value
		want string
	}{
		{value.NewNull(value.Float), `null`},
		{value.NewInt(1 << 53), `9007199254740992`},
		{value.NewInt(1<<53 + 1), `"9007199254740993"`},
		{value.NewInt(math.MinInt64), `"-9223372036854775808"`},
		{value.NewFloat(0.25), `0.25`},
		{value.NewFloat(1e21), `1e+21`},
		{value.NewFloat(math.NaN()), `"NaN"`},
		{value.NewFloat(math.Inf(1)), `"Infinity"`},
		{value.NewFloat(math.Inf(-1)), `"-Infinity"`},
		{value.NewString("naïve"), `"naïve"`},
		{value.NewBool(true), `true`},
	} {
		got, err := json.Marshal(jsonValue(tc.v))
		if err != nil || string(got) != tc.want {
			t.Errorf("jsonValue(%v) marshals to %s (err %v), want %s", tc.v, got, err, tc.want)
		}
	}
}
