package aggrcons

import "dart/internal/relational"

// GroundAllKeys is GroundAll together with the deduplication key it built
// for each ground before allocating it.
func GroundAllKeys(k *Constraint, db *relational.Database) ([]*Ground, []string, error) {
	if err := k.Validate(db); err != nil {
		return nil, nil, err
	}
	grounds, keys := k.groundAll(db)
	return grounds, keys, nil
}
