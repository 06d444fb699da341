package hw

import (
	"fmt"
	"strings"
)

// Model names a machine preset and its constructor.
type Model struct {
	Name string
	Make func() *Machine
}

// Models is the one registry of machine presets: the names scenario
// specs, the command-line tools and the validation scorecards address
// them by, in a fixed order (the order of the committed golden
// scorecards).
var Models = []Model{
	{Name: "raptorlake", Make: RaptorLake},
	{Name: "orangepi800", Make: OrangePi800},
	{Name: "dimensity9000", Make: Dimensity9000},
	{Name: "homogeneous", Make: Homogeneous},
}

// LookupModel returns the named preset, or an error that lists every
// model.
func LookupModel(name string) (Model, error) {
	names := make([]string, len(Models))
	for i, md := range Models {
		if md.Name == name {
			return md, nil
		}
		names[i] = md.Name
	}
	return Model{}, fmt.Errorf("unknown machine %q (want one of %s)", name, strings.Join(names, ", "))
}
