// Package dbgen is the database-generator sub-module of Section 6.2: it
// turns the wrapper's row pattern instances into a relational database
// instance according to the extraction metadata — attributes either
// correspond to headline cells of the instances or are derived from
// classification information (e.g. CashBudget.Type is implied by the
// Subsection item being a detail, aggregate, or derived entry).
package dbgen

import (
	"fmt"

	"dart/internal/lexicon"
	"dart/internal/relational"
	"dart/internal/wrapper"
)

// Classification derives an attribute value from the item bound to a
// headline cell: Classes maps normalized lexical items to class labels.
type Classification struct {
	// FromHeadline is the headline cell whose item is classified.
	FromHeadline string
	// Classes maps lexical items (normalized) to the class label stored in
	// the attribute.
	Classes map[string]string
}

// Classify returns the class of an item.
func (c *Classification) Classify(item string) (string, bool) {
	v, ok := c.Classes[lexicon.Normalize(item)]
	return v, ok
}

// Generator holds the scheme mapping of the extraction metadata.
type Generator struct {
	Schema *relational.Schema
	// Measures lists the measure attributes (M_R) of the generated
	// relation.
	Measures []string
	// CellOf maps attribute names to instance headline names.
	CellOf map[string]string
	// ClassifiedBy maps attribute names to classification rules.
	ClassifiedBy map[string]*Classification
}

// Validate checks that every attribute of the scheme has exactly one
// source and that measures are numerical attributes of the scheme.
func (g *Generator) Validate() error {
	if g.Schema == nil {
		return fmt.Errorf("dbgen: no schema")
	}
	for _, a := range g.Schema.Attributes() {
		_, hasCell := g.CellOf[a.Name]
		_, hasClass := g.ClassifiedBy[a.Name]
		switch {
		case hasCell && hasClass:
			return fmt.Errorf("dbgen: attribute %s has both a cell and a classification source", a.Name)
		case !hasCell && !hasClass:
			return fmt.Errorf("dbgen: attribute %s has no source", a.Name)
		}
	}
	for _, m := range g.Measures {
		dom, err := g.Schema.DomainOf(m)
		if err != nil {
			return err
		}
		if !dom.Numerical() {
			return fmt.Errorf("dbgen: measure attribute %s is not numerical", m)
		}
	}
	return nil
}

// RowError reports one instance that could not be converted into a tuple.
type RowError struct {
	Instance *wrapper.Instance
	Err      error
}

func (e RowError) Error() string {
	return fmt.Sprintf("dbgen: table %d row %d: %v", e.Instance.Table, e.Instance.Row, e.Err)
}

// Generate converts the instances into a fresh database containing one
// relation. Instances that cannot be converted (missing headline,
// unparseable value, unclassifiable item) are collected as RowErrors
// rather than aborting the whole document.
func (g *Generator) Generate(instances []*wrapper.Instance) (*relational.Database, []RowError, error) {
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	db := relational.NewDatabase()
	rel, err := db.AddRelation(g.Schema)
	if err != nil {
		return nil, nil, err
	}
	for _, m := range g.Measures {
		if err := db.DesignateMeasure(g.Schema.Name(), m); err != nil {
			return nil, nil, err
		}
	}
	var rowErrs []RowError
	rel.Grow(len(instances))
	attrs := g.Schema.Attributes()
	vals := make([]relational.Value, len(attrs)) // Insert copies it
	for _, in := range instances {
		ok := true
		for i, attr := range attrs {
			var raw string
			if headline, fromCell := g.CellOf[attr.Name]; fromCell {
				v, found := in.Get(headline)
				if !found {
					rowErrs = append(rowErrs, RowError{in, fmt.Errorf("instance has no cell %q for attribute %s", headline, attr.Name)})
					ok = false
					break
				}
				raw = v
			} else {
				cl := g.ClassifiedBy[attr.Name]
				item, found := in.Get(cl.FromHeadline)
				if !found {
					rowErrs = append(rowErrs, RowError{in, fmt.Errorf("instance has no cell %q to classify attribute %s", cl.FromHeadline, attr.Name)})
					ok = false
					break
				}
				class, classified := cl.Classify(item)
				if !classified {
					rowErrs = append(rowErrs, RowError{in, fmt.Errorf("item %q has no class for attribute %s", item, attr.Name)})
					ok = false
					break
				}
				raw = class
			}
			v, err := relational.ParseValue(raw, attr.Domain)
			if err != nil {
				rowErrs = append(rowErrs, RowError{in, fmt.Errorf("attribute %s: %w", attr.Name, err)})
				ok = false
				break
			}
			vals[i] = v
		}
		if !ok {
			continue
		}
		if _, err := rel.Insert(vals...); err != nil {
			rowErrs = append(rowErrs, RowError{in, err})
		}
	}
	return db, rowErrs, nil
}
