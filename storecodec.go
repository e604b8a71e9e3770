package vipipe

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strings"

	"vipipe/internal/drc"
	"vipipe/internal/mc"
	"vipipe/internal/pipeline"
	"vipipe/internal/power"
	"vipipe/internal/tmodel"
	"vipipe/internal/variation"
	"vipipe/internal/yield"
)

// DiskCodecs maps the flow's artifact nodes to the serializers a
// pipeline.DiskStore needs. Only pure-data artifacts persist, each
// through encoding/gob as it stands; gob matches struct fields by name
// and skips those a type no longer has, so artifacts an older build
// wrote keep decoding:
//
//	mc/<pos>          *mc.Result
//	power/...         *power.Report
//	ladder            []variation.Pos
//	drc               *drc.Report
//	field/surface/... *yield.Surface
//	field/...         *yield.ShardStat (the warm re-sweep currency)
//	tmodel/...        *tmodel.Model    (compact what-if timing models)
//
// Engine-state artifacts — synth, place, analyze, workload, vi/* —
// return a nil codec and stay in the memory tier: they hold live
// netlists, analyzers and simulators whose identity matters (the
// partition keeps a pointer into its netlist; InsertShifters mutates
// it), and they rebuild deterministically from Config anyway. The
// expensive artifacts worth surviving a restart are exactly the Monte
// Carlo characterizations and power reports.
func DiskCodecs() pipeline.Codecs {
	return func(nodeID string) pipeline.Codec {
		switch {
		case nodeID == NodeLadder:
			return gobValue[[]variation.Pos]{}
		case nodeID == NodeDRC:
			return gobPointer[drc.Report]{}
		case strings.HasPrefix(nodeID, "mc/"):
			return gobPointer[mc.Result]{}
		case strings.HasPrefix(nodeID, "power/"):
			return gobPointer[power.Report]{}
		// The surface prefix must match before the general field/
		// prefix: surface nodes are "field/surface/<planhash>".
		case strings.HasPrefix(nodeID, "field/surface/"):
			return gobPointer[yield.Surface]{}
		case strings.HasPrefix(nodeID, "field/"):
			return gobPointer[yield.ShardStat]{}
		case strings.HasPrefix(nodeID, "tmodel/"):
			return gobPointer[tmodel.Model]{}
		}
		return nil
	}
}

// gobValue serializes artifacts stored by value (slices, plain
// structs) through encoding/gob.
type gobValue[T any] struct{}

func (gobValue[T]) Encode(v any) ([]byte, error) {
	t, ok := v.(T)
	if !ok {
		return nil, fmt.Errorf("vipipe: artifact codec: got %T, want %T", v, t)
	}
	return gobBytes(t)
}

func (gobValue[T]) Decode(data []byte) (any, error) {
	var t T
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&t); err != nil {
		return nil, fmt.Errorf("vipipe: artifact decode: %w", err)
	}
	return t, nil
}

// gobPointer serializes artifacts stored as *T, returning *T from
// Decode so graph consumers' type assertions keep working.
type gobPointer[T any] struct{}

func (gobPointer[T]) Encode(v any) ([]byte, error) {
	t, ok := v.(*T)
	if !ok || t == nil {
		return nil, fmt.Errorf("vipipe: artifact codec: got %T, want non-nil %T", v, t)
	}
	return gobBytes(t)
}

func (gobPointer[T]) Decode(data []byte) (any, error) {
	t := new(T)
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(t); err != nil {
		return nil, fmt.Errorf("vipipe: artifact decode: %w", err)
	}
	return t, nil
}

func gobBytes(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("vipipe: artifact encode: %w", err)
	}
	return buf.Bytes(), nil
}
