// Package scenario bundles ready-made designer metadata for the paper's
// application scenarios: cash budgets (Example 1), web product catalogs
// (purchase orders), and full balance sheets (the introduction's motivating
// domain, with the three-level accounting-equation constraint chain). The
// metadata is authored in the textual metadata format and parsed at first
// use, so the scenarios exercise the same path a designer-authored file
// would.
package scenario

import (
	"fmt"
	"strings"
	"sync"

	"dart/internal/docgen"
	"dart/internal/metadata"
	"dart/internal/runningex"
)

// CashBudgetSource returns the cash-budget scenario's metadata file text.
func CashBudgetSource() string {
	var b strings.Builder
	b.WriteString(`title Cash budget acquisition

domain Section: 'Receipts', 'Disbursements', 'Balance'
domain Subsection: 'beginning cash', 'cash sales', 'receivables', 'total cash receipts',
domain Subsection: 'payment of accounts', 'capital expenditure', 'long-term financing',
domain Subsection: 'total disbursements', 'net cash inflow', 'ending cash balance'

`)
	for _, sub := range runningex.Subsections {
		fmt.Fprintf(&b, "hierarchy '%s' -> '%s'\n", sub, runningex.SectionOf[sub])
	}
	b.WriteString(`
pattern BudgetRow:
  cell Year: Integer
  cell Section: domain Section
  cell Subsection: domain Subsection specializes Section
  cell Value: Integer

tnorm min
minscore 0.5

relation CashBudget(Year: Z, Section: S, Subsection: S, Type: S, Value: Z)
measure CashBudget.Value

map Year from cell Year
map Section from cell Section
map Subsection from cell Subsection
map Value from cell Value

classify Type from Subsection:
`)
	for _, sub := range runningex.Subsections {
		fmt.Fprintf(&b, "  '%s' -> '%s'\n", sub, runningex.TypeOf[sub])
	}
	b.WriteString(`
constraints:
  # Aggregation functions of Example 2.
  func chi1(x, y, z) := SELECT sum(Value) FROM CashBudget
                        WHERE Section = x AND Year = y AND Type = z
  func chi2(x, y)    := SELECT sum(Value) FROM CashBudget
                        WHERE Year = x AND Subsection = y

  constraint Constraint1:
      CashBudget(y, x, _, _, _) ==> chi1(x, y, 'det') - chi1(x, y, 'aggr') = 0
  constraint Constraint2:
      CashBudget(x, _, _, _, _) ==>
        chi2(x, 'net cash inflow') - (chi2(x, 'total cash receipts') - chi2(x, 'total disbursements')) = 0
  constraint Constraint3:
      CashBudget(x, _, _, _, _) ==>
        chi2(x, 'ending cash balance') - (chi2(x, 'beginning cash') + chi2(x, 'net cash inflow')) = 0
end
`)
	return b.String()
}

// CatalogSource returns the purchase-order scenario's metadata file text.
func CatalogSource() string {
	var b strings.Builder
	b.WriteString("title Purchase order acquisition\n\ndomain Product: ")
	items := append(docgen.CatalogProducts(), "order total")
	for i, p := range items {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "'%s'", p)
	}
	b.WriteString(`

pattern OrderRow:
  cell OrderID: String
  cell Product: domain Product
  cell Amount: Integer

tnorm min
minscore 0.5

relation Orders(OrderID: S, Product: S, Kind: S, Amount: Z)
measure Orders.Amount

map OrderID from cell OrderID
map Product from cell Product
map Amount from cell Amount

classify Kind from Product:
`)
	for _, p := range docgen.CatalogProducts() {
		fmt.Fprintf(&b, "  '%s' -> 'line'\n", p)
	}
	b.WriteString("  'order total' -> 'total'\n")
	b.WriteString(`
constraints:
  func lineSum(o)  := SELECT sum(Amount) FROM Orders WHERE OrderID = o AND Kind = 'line'
  func totalSum(o) := SELECT sum(Amount) FROM Orders WHERE OrderID = o AND Kind = 'total'
  constraint OrderBalance:
      Orders(o, _, _, _) ==> lineSum(o) - totalSum(o) = 0
end
`)
	return b.String()
}

// BalanceSheetSource returns the balance-sheet scenario's metadata file
// text: the paper's actual motivating domain, with a three-level
// constraint chain ending in the accounting equation.
func BalanceSheetSource() string {
	var b strings.Builder
	b.WriteString("title Balance sheet acquisition\n\n")
	cats := map[string]bool{}
	b.WriteString("domain Category: ")
	first := true
	for _, item := range docgen.BalanceItems {
		c := docgen.BalanceCategoryOf[item]
		if cats[c] {
			continue
		}
		cats[c] = true
		if !first {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "'%s'", c)
		first = false
	}
	b.WriteString("\n")
	for i, item := range docgen.BalanceItems {
		if i%4 == 0 {
			b.WriteString("domain Item: ")
		}
		fmt.Fprintf(&b, "'%s'", item)
		if i%4 == 3 || i == len(docgen.BalanceItems)-1 {
			b.WriteString("\n")
		} else {
			b.WriteString(", ")
		}
	}
	b.WriteString("\n")
	for _, item := range docgen.BalanceItems {
		fmt.Fprintf(&b, "hierarchy '%s' -> '%s'\n", item, docgen.BalanceCategoryOf[item])
	}
	b.WriteString(`
pattern SheetRow:
  cell Year: Integer
  cell Category: domain Category
  cell Item: domain Item specializes Category
  cell Amount: Integer

tnorm min
minscore 0.5

relation BalanceSheet(Year: Z, Category: S, Item: S, Kind: S, Amount: Z)
measure BalanceSheet.Amount

map Year from cell Year
map Category from cell Category
map Item from cell Item
map Amount from cell Amount

classify Kind from Item:
`)
	for _, item := range docgen.BalanceItems {
		fmt.Fprintf(&b, "  '%s' -> '%s'\n", item, docgen.BalanceKindOf[item])
	}
	b.WriteString(`
constraints:
  func amt(y, i) := SELECT sum(Amount) FROM BalanceSheet WHERE Year = y AND Item = i

  constraint CurrentAssets:
      BalanceSheet(y, _, _, _, _) ==>
        amt(y, 'cash') + amt(y, 'accounts receivable') + amt(y, 'inventory') - amt(y, 'total current assets') = 0
  constraint FixedAssets:
      BalanceSheet(y, _, _, _, _) ==>
        amt(y, 'land') + amt(y, 'equipment') - amt(y, 'total fixed assets') = 0
  constraint TotalAssets:
      BalanceSheet(y, _, _, _, _) ==>
        amt(y, 'total current assets') + amt(y, 'total fixed assets') - amt(y, 'total assets') = 0
  constraint CurrentLiabilities:
      BalanceSheet(y, _, _, _, _) ==>
        amt(y, 'accounts payable') + amt(y, 'short-term debt') - amt(y, 'total current liabilities') = 0
  constraint LongTermLiabilities:
      BalanceSheet(y, _, _, _, _) ==>
        amt(y, 'long-term debt') - amt(y, 'total long-term liabilities') = 0
  constraint Equity:
      BalanceSheet(y, _, _, _, _) ==>
        amt(y, 'common stock') + amt(y, 'retained earnings') - amt(y, 'total equity') = 0
  constraint LiabilitiesAndEquity:
      BalanceSheet(y, _, _, _, _) ==>
        amt(y, 'total current liabilities') + amt(y, 'total long-term liabilities') + amt(y, 'total equity') - amt(y, 'total liabilities and equity') = 0
  constraint AccountingEquation:
      BalanceSheet(y, _, _, _, _) ==>
        amt(y, 'total assets') - amt(y, 'total liabilities and equity') = 0
end
`)
	return b.String()
}

var (
	once         sync.Once
	cashBudget   *metadata.Metadata
	catalog      *metadata.Metadata
	balanceSheet *metadata.Metadata
	parseErr     error
)

func ensure() error {
	once.Do(func() {
		cashBudget, parseErr = metadata.Parse(CashBudgetSource())
		if parseErr != nil {
			return
		}
		catalog, parseErr = metadata.Parse(CatalogSource())
		if parseErr != nil {
			return
		}
		balanceSheet, parseErr = metadata.Parse(BalanceSheetSource())
	})
	return parseErr
}

// Named returns the parsed metadata of the built-in scenario called name:
// cashbudget (also ""), catalog or balancesheet.
func Named(name string) (*metadata.Metadata, error) {
	switch name {
	case "", "cashbudget":
		return CashBudget()
	case "catalog":
		return Catalog()
	case "balancesheet":
		return BalanceSheet()
	default:
		return nil, fmt.Errorf("unknown scenario %q (want cashbudget, catalog or balancesheet)", name)
	}
}

// CashBudget returns the parsed cash-budget metadata.
func CashBudget() (*metadata.Metadata, error) {
	if err := ensure(); err != nil {
		return nil, err
	}
	return cashBudget, nil
}

// Catalog returns the parsed purchase-order metadata.
func Catalog() (*metadata.Metadata, error) {
	if err := ensure(); err != nil {
		return nil, err
	}
	return catalog, nil
}

// BalanceSheet returns the parsed balance-sheet metadata.
func BalanceSheet() (*metadata.Metadata, error) {
	if err := ensure(); err != nil {
		return nil, err
	}
	return balanceSheet, nil
}
