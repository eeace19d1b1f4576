package spec

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// AppendCanonical appends the canonical JSON encoding of s to dst: the
// material the service hashes into content addresses (DESIGN.md §8). It
// is byte for byte what encoding s with encoding/json, decoding the result
// with UseNumber and re-encoding it deterministically gives, written in
// one pass over the struct:
//
//   - Name is left out — it labels a run, never affects it;
//   - object keys come out sorted, and zero omitempty fields are left out;
//   - numbers are normalized (normalizeNumber), so 7, 7.0 and
//     json.Number("7e0") encode alike;
//   - strings are escaped as encoding/json escapes them, with invalid
//     UTF-8 replaced by U+FFFD;
//   - there is no insignificant whitespace.
//
// Every field of ScenarioSpec, GraphSpec, AgentSpec and AlgorithmSpec is
// listed here by hand: a new field must be added below, or it drops out
// of every key (the service's field-coverage test fails until it is).
//
// The error, for NaN or infinite floats, an invalid json.Number, or a
// param value encoding/json cannot marshal, is the one encoding/json
// reports; dst is then not returned.
func (s ScenarioSpec) AppendCanonical(dst []byte) ([]byte, error) {
	dst = append(dst, `{"agents":`...)
	if s.Agents == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, ag := range s.Agents {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = ag.appendCanonical(dst); err != nil {
				return nil, err
			}
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"graph":`...)
	dst, err := s.Graph.appendCanonical(dst)
	if err != nil {
		return nil, err
	}
	if s.MaxRounds != 0 {
		dst = append(dst, `,"max_rounds":`...)
		dst = strconv.AppendInt(dst, int64(s.MaxRounds), 10)
	}
	return append(dst, '}'), nil
}

func (g GraphSpec) appendCanonical(dst []byte) ([]byte, error) {
	dst = append(dst, `{"family":`...)
	dst, err := appendString(dst, g.Family)
	if err != nil {
		return nil, err
	}
	if g.N != 0 {
		dst = append(dst, `,"n":`...)
		dst = strconv.AppendInt(dst, int64(g.N), 10)
	}
	if g.P != 0 { // -0 is zero to omitempty too; NaN is not
		dst = append(dst, `,"p":`...)
		if dst, err = appendFloat(dst, g.P); err != nil {
			return nil, err
		}
	}
	if g.Rows != 0 {
		dst = append(dst, `,"rows":`...)
		dst = strconv.AppendInt(dst, int64(g.Rows), 10)
	}
	if g.Seed != 0 {
		dst = append(dst, `,"seed":`...)
		dst = strconv.AppendInt(dst, g.Seed, 10)
	}
	if g.Tail != 0 {
		dst = append(dst, `,"tail":`...)
		dst = strconv.AppendInt(dst, int64(g.Tail), 10)
	}
	return append(dst, '}'), nil
}

func (ag AgentSpec) appendCanonical(dst []byte) ([]byte, error) {
	dst = append(dst, `{"algorithm":{"name":`...)
	dst, err := appendString(dst, ag.Algorithm.Name)
	if err != nil {
		return nil, err
	}
	if len(ag.Algorithm.Params) != 0 {
		dst = append(dst, `,"params":`...)
		if dst, err = appendValue(dst, ag.Algorithm.Params); err != nil {
			return nil, err
		}
	}
	dst = append(dst, `},"label":`...)
	dst = strconv.AppendInt(dst, int64(ag.Label), 10)
	dst = append(dst, `,"start":`...)
	dst = strconv.AppendInt(dst, int64(ag.Start), 10)
	if ag.Wake != 0 {
		dst = append(dst, `,"wake":`...)
		dst = strconv.AppendInt(dst, int64(ag.Wake), 10)
	}
	return append(dst, '}'), nil
}

// appendValue appends the canonical encoding of a param value. The values
// a JSON decode yields (nil, bool, string, json.Number, []any and
// map[string]any) and the int, int64, uint64 and float64 params Go code
// builds are written directly; any other value — an int32, a []int, a
// struct, a json.Marshaler — is marshaled on its own, decoded, and
// written from the decoded form.
func appendValue(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, "null"...), nil
	case bool:
		return strconv.AppendBool(dst, x), nil
	case string:
		return appendString(dst, x)
	case json.Number:
		if out, ok := appendNumberLiteral(dst, x); ok {
			return out, nil
		}
		_, err := json.Marshal(x) // the error encoding/json reports
		return nil, err
	case float64:
		return appendFloat(dst, x)
	case int:
		return strconv.AppendInt(dst, int64(x), 10), nil
	case int64:
		return strconv.AppendInt(dst, x, 10), nil
	case uint64:
		return strconv.AppendUint(dst, x, 10), nil
	case []any:
		if x == nil {
			return append(dst, "null"...), nil
		}
		dst = append(dst, '[')
		for i, e := range x {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendValue(dst, e); err != nil {
				return nil, err
			}
		}
		return append(dst, ']'), nil
	case map[string]any:
		if x == nil {
			return append(dst, "null"...), nil
		}
		var small [8]string
		keys, valid := small[:0], true
		for k := range x {
			valid = valid && utf8.ValidString(k)
			keys = append(keys, k)
		}
		if !valid {
			// A decode turns invalid keys into U+FFFD, which can merge
			// two keys and reorder the rest: take the round trip below.
			break
		}
		slices.Sort(keys)
		dst = append(dst, '{')
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendString(dst, k); err != nil {
				return nil, err
			}
			dst = append(dst, ':')
			if dst, err = appendValue(dst, x[k]); err != nil {
				return nil, err
			}
		}
		return append(dst, '}'), nil
	}
	// The decoded form holds only the types written directly above, so
	// this recursion ends there.
	decoded, err := decodeRoundTrip(v)
	if err != nil {
		return nil, err
	}
	return appendValue(dst, decoded)
}

// decodeRoundTrip returns what a JSON decode with UseNumber makes of v's
// encoding.
func decodeRoundTrip(v any) (any, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var decoded any
	if err := dec.Decode(&decoded); err != nil {
		return nil, err
	}
	return decoded, nil
}

// appendString appends s as a JSON string. Printable ASCII without the
// characters encoding/json escapes (", \, and the HTML-sensitive <, >, &)
// is copied between quotes; anything else goes through encoding/json and
// back, so invalid UTF-8 becomes U+FFFD exactly as a decode makes it.
func appendString(dst []byte, s string) ([]byte, error) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			decoded, err := decodeRoundTrip(s)
			if err != nil {
				return nil, err
			}
			enc, err := json.Marshal(decoded)
			if err != nil {
				return nil, err
			}
			return append(dst, enc...), nil
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"'), nil
}

// appendFloat appends f the way encoding/json prints a float64 — shortest
// form, exponent only below 1e-6 or from 1e21 on — passed through
// normalizeNumber.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f) // the error encoding/json reports
		return nil, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	var buf [32]byte
	num := strconv.AppendFloat(buf[:0], f, format, -1, 64)
	if n := len(num); format == 'e' && n >= 4 && num[n-4] == 'e' && num[n-3] == '-' && num[n-2] == '0' {
		num[n-2] = num[n-1] // e-07 → e-7, as encoding/json prints it
		num = num[:n-1]
	}
	return normalizeNumber(dst, string(num)), nil
}

// normalizeNumber appends the canonical form of the JSON number literal
// num, mapping every spelling of one number to one form: int64-range
// integers (including "1.0" and "1e2") print as plain decimals,
// uint64-range integers keep full precision, and everything else prints
// in strconv's shortest float64 round-trip form. The integer Param
// accessors parse this form, so spellings that share a key also share an
// outcome.
func normalizeNumber(dst []byte, num string) []byte {
	// Unsigned first: a seed above MaxInt64 then parses without the
	// allocation of a failed ParseInt, and below it both agree.
	if u, err := strconv.ParseUint(num, 10, 64); err == nil {
		return strconv.AppendUint(dst, u, 10)
	}
	if i, err := strconv.ParseInt(num, 10, 64); err == nil {
		return strconv.AppendInt(dst, i, 10)
	}
	f, err := strconv.ParseFloat(num, 64)
	if err != nil {
		// Out of float64 range ("1e400"): keep the literal rather than
		// fail the encoding.
		return append(dst, num...)
	}
	if f == float64(int64(f)) && f >= -1e15 && f <= 1e15 {
		return strconv.AppendInt(dst, int64(f), 10)
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

// appendNumberLiteral appends the canonical form of a json.Number, or
// reports false for a literal encoding/json refuses to write.
func appendNumberLiteral(dst []byte, n json.Number) ([]byte, bool) {
	num := n.String()
	if num == "" {
		num = "0" // encoding/json writes the zero Number as 0
	}
	if !validNumber(num) {
		return nil, false
	}
	return normalizeNumber(dst, num), true
}

// validNumber reports whether num is a JSON number literal, by the grammar
// encoding/json checks a json.Number against before writing it.
func validNumber(num string) bool {
	if num != "" && num[0] == '-' {
		num = num[1:]
	}
	switch {
	case num == "":
		return false
	case num[0] == '0':
		num = num[1:]
	case '1' <= num[0] && num[0] <= '9':
		num = skipDigits(num[1:])
	default:
		return false
	}
	if len(num) >= 2 && num[0] == '.' && '0' <= num[1] && num[1] <= '9' {
		num = skipDigits(num[2:])
	}
	if len(num) >= 2 && (num[0] == 'e' || num[0] == 'E') {
		num = num[1:]
		if num[0] == '+' || num[0] == '-' {
			num = num[1:]
		}
		if num == "" {
			return false
		}
		num = skipDigits(num)
	}
	return num == ""
}

func skipDigits(s string) string {
	for len(s) > 0 && '0' <= s[0] && s[0] <= '9' {
		s = s[1:]
	}
	return s
}
