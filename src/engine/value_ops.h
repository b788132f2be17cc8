#ifndef RAQLET_ENGINE_VALUE_OPS_H_
#define RAQLET_ENGINE_VALUE_OPS_H_

// Runtime value operations shared by the Datalog, SQL and graph engines,
// so that all three paradigms agree on comparison and arithmetic
// semantics (a prerequisite for differential testing; see
// docs/architecture.md, "The determinism invariant").

#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "dlir/program.h"

namespace raqlet::engine {

/// Three-way comparison: symbols compare lexicographically through
/// `symbols`, numeric kinds compare numerically (ints exactly), other
/// kinds by kind order.
int CompareValues(const Value& a, const Value& b, const SymbolTable& symbols);

/// Evaluates `lhs op rhs`. Equality is exact value identity; ordering uses
/// CompareValues.
bool CheckCmp(dlir::CmpOp op, const Value& lhs, const Value& rhs,
              const SymbolTable& symbols);

/// Integer/float arithmetic with float promotion; errors on division by
/// zero and float modulo.
Result<Value> EvalArith(dlir::ArithOp op, const Value& lhs, const Value& rhs);

/// Converts an IR constant to a runtime value, interning strings.
Value ConstantToValue(const dlir::Constant& c, SymbolTable* symbols);

/// A materialized query result with named columns, as returned by the SQL
/// and graph engines and extracted from output relations of the Datalog
/// engine.
struct ResultTable {
  std::vector<std::string> columns;
  /// Logical type per column when the producing engine knows it (the SQL
  /// engine fills this from its inferred output schema); may be empty.
  std::vector<ValueType> column_types;
  std::vector<Tuple> rows;

  /// Canonical (sorted, rendered) form for cross-engine comparison.
  std::set<std::string> ToStringSet(const SymbolTable& symbols) const;
  std::string ToString(const SymbolTable& symbols) const;
};

}  // namespace raqlet::engine

#endif  // RAQLET_ENGINE_VALUE_OPS_H_
