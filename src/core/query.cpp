#include "core/query.h"

#include "util/contracts.h"

namespace mpsram::core {

Result_table::Result_table(Metric metric, std::vector<Query_case> cases,
                           std::vector<Row_value> rows)
    : metric_(metric), cases_(std::move(cases)), rows_(std::move(rows))
{
    util::expects(cases_.size() == rows_.size(),
                  "result table rows must match the query cases");
}

const Query_case& Result_table::axes(std::size_t i) const
{
    util::expects(i < cases_.size(), "result row index out of range");
    return cases_[i];
}

const Row_value& Result_table::raw(std::size_t i) const
{
    util::expects(i < rows_.size(), "result row index out of range");
    return rows_[i];
}

} // namespace mpsram::core
