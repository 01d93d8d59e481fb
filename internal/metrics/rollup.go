package metrics

import "reflect"

// Counters flattens a stats struct (or pointer to one) into a name → value
// map via reflection: exported unsigned fields are taken as-is, non-negative
// signed fields are widened, bools count as 0/1, and nested structs recurse
// with a dotted prefix. Every protocol defines its own ReplicaStats type, so
// a reflective flattener is what lets a harness aggregate stats across
// protocols without a per-protocol adapter.
func Counters(v any) map[string]uint64 {
	out := make(map[string]uint64)
	flattenCounters(reflect.ValueOf(v), "", out)
	return out
}

func flattenCounters(rv reflect.Value, prefix string, out map[string]uint64) {
	for rv.Kind() == reflect.Pointer || rv.Kind() == reflect.Interface {
		if rv.IsNil() {
			return
		}
		rv = rv.Elem()
	}
	if rv.Kind() != reflect.Struct {
		return
	}
	t := rv.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		name := prefix + f.Name
		fv := rv.Field(i)
		switch fv.Kind() {
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			out[name] = fv.Uint()
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			if n := fv.Int(); n >= 0 {
				out[name] = uint64(n)
			}
		case reflect.Bool:
			if fv.Bool() {
				out[name] = 1
			} else {
				out[name] = 0
			}
		case reflect.Struct:
			flattenCounters(fv, name+".", out)
		}
	}
}

// AddCounters accumulates src into dst (dst gains any missing keys).
func AddCounters(dst, src map[string]uint64) {
	for k, v := range src {
		dst[k] += v
	}
}
