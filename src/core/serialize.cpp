#include "core/serialize.h"

#include <cmath>
#include <concepts>
#include <limits>
#include <utility>

#include "sram/solver_policy.h"
#include "util/contracts.h"
#include "util/hash.h"

namespace mpsram::core {

namespace {

using util::Json;
using util::Json_array;
using util::json_of_double;

// --- field lists -------------------------------------------------------------
// One list per round-tripped record, naming each member once in key order.
// Encoder (json_of_*) and Decoder (*_of_json) both walk it, so the two
// directions cannot drift apart.  `R` is the record type, const-qualified
// when encoding; an enum member names its token table.

template <class R, class T>
concept record_of = std::same_as<std::remove_const_t<R>, T>;

template <record_of<Query_case> R, class F>
void fields(R& c, F&& f)
{
    f("option", c.option, tech::patterning_option_tokens);
    f("word_lines", c.word_lines);
    f("ol_3sigma", c.ol_3sigma);
}

/// The Monte-Carlo spec.  Its runner is execution policy: never encoded.
template <record_of<mc::Distribution_options> R, class F>
void fields(R& m, F&& f)
{
    f("samples", m.samples);
    f("seed", m.seed);
    f("truncate_k", m.truncate_k);
    f("sampling", m.sampling, mc::sampling_tokens);
    f("store_samples", m.store_samples);
}

/// The query runner is execution policy and is not encoded either.
template <record_of<Query> R, class F>
void fields(R& q, F&& f)
{
    f("metric", q.metric, metric_tokens);
    f("cases", q.cases);
    f("accuracy", q.accuracy, sram::sim_accuracy_tokens);
    f("solver", q.solver, sram::solver_policy_tokens);
    f("mc", q.mc);
    f("tdp_engine", q.tdp_engine, tdp_engine_tokens);
    f("twp_engine", q.twp_engine, twp_engine_tokens);
}

template <record_of<util::Sample_summary> R, class F>
void fields(R& s, F&& f)
{
    f("count", s.count);
    f("mean", s.mean);
    f("stddev", s.stddev);
    f("min", s.min);
    f("max", s.max);
    f("median", s.median);
    f("p01", s.p01);
    f("p99", s.p99);
}

template <record_of<Worst_case_row> R, class F>
void fields(R& r, F&& f)
{
    f("option", r.option, tech::patterning_option_tokens);
    f("corner", r.corner);
    f("cbl_percent", r.cbl_percent);
    f("rbl_percent", r.rbl_percent);
    f("vss_r_percent", r.vss_r_percent);
}

template <record_of<Read_row> R, class F>
void fields(R& r, F&& f)
{
    f("td_nominal", r.td_nominal);
    f("td_varied", r.td_varied);
    f("tdp_percent", r.tdp_percent);
}

template <record_of<Nominal_td_row> R, class F>
void fields(R& r, F&& f)
{
    f("td_simulation", r.td_simulation);
    f("td_formula", r.td_formula);
}

template <record_of<Tdp_row> R, class F>
void fields(R& r, F&& f)
{
    f("tdp_simulation", r.tdp_simulation);
    f("tdp_formula", r.tdp_formula);
}

template <record_of<Write_row> R, class F>
void fields(R& r, F&& f)
{
    f("tw_nominal", r.tw_nominal);
    f("tw_varied", r.tw_varied);
    f("twp_percent", r.twp_percent);
}

template <record_of<Nominal_tw_row> R, class F>
void fields(R& r, F&& f)
{
    f("tw_simulation", r.tw_simulation);
    f("tw_formula", r.tw_formula);
}

template <record_of<Disturb_row> R, class F>
void fields(R& r, F&& f)
{
    f("v_bump_nominal", r.v_bump_nominal);
    f("v_bump_varied", r.v_bump_varied);
    f("disturb_percent", r.disturb_percent);
}

template <record_of<mc::Tdp_distribution> R, class F>
void fields(R& d, F&& f)
{
    f("tdp", d.tdp);
    f("rvar", d.rvar);
    f("cvar", d.cvar);
    f("summary", d.summary);
}

/// The "type" tag of each Row_value alternative, by variant index.
constexpr auto row_types = util::token_table<std::size_t>(
    "result row type", {{0, "worst_case"},
                        {1, "read"},
                        {2, "nominal_td"},
                        {3, "worst_case_tdp"},
                        {4, "write"},
                        {5, "nominal_tw"},
                        {6, "disturb"},
                        {7, "distribution"}});
static_assert(row_types.size() == std::variant_size_v<Row_value>);

template <record_of<pattern::Corner> R, class F>
void fields(R& c, F&& f)
{
    f("sample", c.sample);
    f("metric", c.metric);
}

template <record_of<extract::Rc_variation> R, class F>
void fields(R& v, F&& f)
{
    f("r_factor", v.r_factor);
    f("c_factor", v.c_factor);
}

/// The realized geometry is the full Wire_array, one object per wire.
template <record_of<mc::Worst_case_result> R, class F>
void fields(R& wc, F&& f)
{
    f("corner", wc.corner);
    f("variation", wc.variation);
    f("vss_r_factor", wc.vss_r_factor);
    f("realized", wc.realized);
}

template <record_of<geom::Wire> R, class F>
void fields(R& w, F&& f)
{
    f("net", w.net);
    f("y_center", w.y_center);
    f("width", w.width);
    f("length", w.length);
    f("color", w.color, geom::mask_color_tokens);
    f("sadp", w.sadp, geom::sadp_class_tokens);
}

template <record_of<analytic::Yield_surfaces> R, class F>
void fields(R& s, F&& f)
{
    f("metric", s.metric);
    f("rvar", s.rvar);
    f("cvar", s.cvar);
    f("holdout_rel", s.holdout_rel);
    f("design_span", s.design_span);
    f("design_points", s.design_points);
    f("holdout_points", s.holdout_points);
}

// --- the two walkers ---------------------------------------------------------
// Value kinds: doubles through util::json_of_double (NaN-tagged), ints as
// numbers, u64 (seeds, counts) as u64, enums as their table token.

struct Encoder {
    Json& j;

    template <class T>
    void operator()(std::string_view key, const T& value) const
    {
        j.set(key, of(value));
    }
    template <class E, std::size_t N>
    void operator()(std::string_view key, const E& value,
                    const util::Token_table<E, N>& tokens) const
    {
        j.set(key, tokens.name(value));
    }
    template <class E, std::size_t N>
    void operator()(std::string_view key, const std::optional<E>& value,
                    const util::Token_table<E, N>& tokens) const
    {
        if (value) j.set(key, tokens.name(*value));
    }

    static Json of(double v) { return util::json_of_double(v); }
    static Json of(int v) { return v; }
    static Json of(std::uint64_t v) { return v; }
    static Json of(bool v) { return v; }
    static Json of(const std::string& v) { return v; }
    static Json of(const geom::Wire_array& w) { return of(w.wires()); }
    /// A row is its "type" tag followed by its fields.
    static Json of(const Row_value& row)
    {
        Json j;
        j.set("type", row_types.name(row.index()));
        std::visit([&j](const auto& r) { fields(r, Encoder{j}); }, row);
        return j;
    }
    static Json of(const analytic::Response_surface& s)
    {
        Json j;
        j.set("scales", of(s.scales()));
        j.set("coeffs", of(s.coefficients()));
        return j;
    }
    template <class T>
    static Json of(const std::vector<T>& values)
    {
        Json_array out;
        out.reserve(values.size());
        for (const T& v : values) out.push_back(of(v));
        return Json(std::move(out));
    }
    template <class R>
    static Json of(const R& record)
    {
        Json j;
        fields(record, Encoder{j});
        return j;
    }
};

struct Decoder {
    const Json& j;

    template <class T>
    void operator()(std::string_view key, T& value) const
    {
        read(j.at(key), value);
    }
    void operator()(std::string_view key, int& value) const
    {
        // Casting a double outside the int range is UB, and a truncated
        // word_lines would resolve to some other case than the one sent.
        const double v = j.at(key).as_double();
        if (!(v >= std::numeric_limits<int>::min() &&
              v <= std::numeric_limits<int>::max() && v == std::trunc(v))) {
            throw util::Precondition_error(
                "'" + std::string(key) + "' value " + Json(v).dump() +
                " is not an int");
        }
        value = static_cast<int>(v);
    }
    template <class E, std::size_t N>
    void operator()(std::string_view key, E& value,
                    const util::Token_table<E, N>& tokens) const
    {
        value = token(j.at(key), tokens);
    }
    template <class E, std::size_t N>
    void operator()(std::string_view key, std::optional<E>& value,
                    const util::Token_table<E, N>& tokens) const
    {
        if (const Json* x = j.find(key)) value = token(*x, tokens);
    }

    /// A dedicated prefix (not the env parsers' one), so a corrupted cache
    /// entry reports a serialization error, not a bogus environment pin.
    template <class E, std::size_t N>
    static E token(const Json& x, const util::Token_table<E, N>& tokens)
    {
        const std::string& text = x.as_string();
        if (const std::optional<E> value = tokens.parse(text)) return *value;
        tokens.reject("unknown " + std::string(tokens.noun) + " token", text);
    }

    static void read(const Json& x, double& v) { v = util::double_of_json(x); }
    static void read(const Json& x, std::uint64_t& v) { v = x.as_u64(); }
    static void read(const Json& x, bool& v) { v = x.as_bool(); }
    static void read(const Json& x, std::string& v) { v = x.as_string(); }
    static void read(const Json& x, geom::Wire_array& w)
    {
        std::vector<geom::Wire> wires;
        read(x, wires);
        w = geom::Wire_array(std::move(wires));
    }
    static void read(const Json& x, Row_value& row)
    {
        read_row(x, row,
                 std::make_index_sequence<std::variant_size_v<Row_value>>{});
    }
    /// Decode into the alternative the "type" tag names.
    template <std::size_t... I>
    static void read_row(const Json& x, Row_value& row,
                         std::index_sequence<I...>)
    {
        const std::size_t type = token(x.at("type"), row_types);
        ((I == type ? read(x, row.template emplace<I>()) : void()), ...);
    }
    static void read(const Json& x, analytic::Response_surface& s)
    {
        std::vector<double> scales;
        std::vector<double> coeffs;
        read(x.at("scales"), scales);
        read(x.at("coeffs"), coeffs);
        s = analytic::Response_surface::restore(std::move(scales),
                                                std::move(coeffs));
    }
    template <class T>
    static void read(const Json& x, std::vector<T>& values)
    {
        const Json_array& items = x.as_array();
        values.clear();
        values.reserve(items.size());
        for (const Json& item : items) read(item, values.emplace_back());
    }
    template <class R>
    static void read(const Json& x, R& record)
    {
        fields(record, Decoder{x});
    }
};

template <class R>
R decode(const Json& j)
{
    R record;
    Decoder::read(j, record);
    return record;
}

} // namespace

// --- transport round-trips ---------------------------------------------------

util::Json json_of_query(const Query& q) { return Encoder::of(q); }
Query query_of_json(const util::Json& j) { return decode<Query>(j); }

util::Json json_of_result_table(const Result_table& t)
{
    Json_array cases;
    Json_array rows;
    cases.reserve(t.size());
    rows.reserve(t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
        cases.push_back(Encoder::of(t.axes(i)));
        rows.push_back(Encoder::of(t.raw(i)));
    }
    Json j;
    j.set("metric", to_string(t.metric()));
    j.set("cases", std::move(cases));
    j.set("rows", std::move(rows));
    return j;
}

Result_table result_table_of_json(const util::Json& j)
{
    const Metric metric = Decoder::token(j.at("metric"), metric_tokens);
    auto cases = decode<std::vector<Query_case>>(j.at("cases"));
    return Result_table(metric, std::move(cases),
                        decode<std::vector<Row_value>>(j.at("rows")));
}

util::Json json_of_worst_case(const mc::Worst_case_result& wc)
{
    return Encoder::of(wc);
}

mc::Worst_case_result worst_case_of_json(const util::Json& j)
{
    return decode<mc::Worst_case_result>(j);
}

util::Json json_of_surfaces(const analytic::Yield_surfaces& s)
{
    return Encoder::of(s);
}

analytic::Yield_surfaces surfaces_of_json(const util::Json& j)
{
    return decode<analytic::Yield_surfaces>(j);
}

// --- canonical cache keys ----------------------------------------------------

namespace {

Json json_of_beol(const tech::Beol_layer& m)
{
    Json j;
    j.set("name", m.name);
    j.set("pitch", json_of_double(m.pitch));
    j.set("nominal_width", json_of_double(m.nominal_width));
    j.set("thickness", json_of_double(m.thickness));
    j.set("taper_angle", json_of_double(m.taper_angle));
    Json conductor;
    conductor.set("name", m.conductor.name);
    conductor.set("rho_bulk", json_of_double(m.conductor.rho_bulk));
    conductor.set("size_coeff", json_of_double(m.conductor.size_coeff));
    conductor.set("barrier_thickness",
                  json_of_double(m.conductor.barrier_thickness));
    conductor.set("rho_barrier", json_of_double(m.conductor.rho_barrier));
    j.set("conductor", std::move(conductor));
    Json ild;
    ild.set("name", m.ild.name);
    ild.set("k", json_of_double(m.ild.k));
    j.set("ild", std::move(ild));
    j.set("below_plane_dist", json_of_double(m.below_plane_dist));
    j.set("above_plane_dist", json_of_double(m.above_plane_dist));
    Json drc;
    drc.set("min_width", json_of_double(m.drc.min_width));
    drc.set("min_space", json_of_double(m.drc.min_space));
    j.set("drc", std::move(drc));
    return j;
}

Json json_of_technology(const tech::Technology& t)
{
    Json j;
    j.set("name", t.name);
    j.set("metal1", json_of_beol(t.metal1));
    j.set("metal2", json_of_beol(t.metal2));
    Json feol;
    feol.set("vdd", json_of_double(t.feol.vdd));
    feol.set("sense_margin", json_of_double(t.feol.sense_margin));
    feol.set("nmos_ion", json_of_double(t.feol.nmos_ion));
    feol.set("pmos_ion", json_of_double(t.feol.pmos_ion));
    feol.set("vth", json_of_double(t.feol.vth));
    feol.set("c_gate", json_of_double(t.feol.c_gate));
    feol.set("c_junction", json_of_double(t.feol.c_junction));
    j.set("feol", std::move(feol));
    Json variability;
    variability.set("cd_3sigma", json_of_double(t.variability.cd_3sigma));
    variability.set("sadp_spacer_3sigma",
                    json_of_double(t.variability.sadp_spacer_3sigma));
    variability.set("le3_ol_3sigma",
                    json_of_double(t.variability.le3_ol_3sigma));
    j.set("variability", std::move(variability));
    Json cell;
    cell.set("cell_length", json_of_double(t.cell.cell_length));
    cell.set("tracks_per_cell", t.cell.tracks_per_cell);
    j.set("cell", std::move(cell));
    return j;
}

Json json_of_study_options(const Study_options& o)
{
    Json j;
    Json array;
    array.set("word_lines", o.array.word_lines);
    array.set("bl_pairs", o.array.bl_pairs);
    array.set("victim_pair", o.array.victim_pair);
    j.set("array", std::move(array));

    Json extraction;
    extraction.set("integration_points", o.extraction.integration_points);
    extraction.set("min_gap", json_of_double(o.extraction.min_gap));
    extraction.set("k_fringe_coupling",
                   json_of_double(o.extraction.k_fringe_coupling));
    extraction.set("k_fringe_ground",
                   json_of_double(o.extraction.k_fringe_ground));
    extraction.set("fringe_shield_power",
                   json_of_double(o.extraction.fringe_shield_power));
    extraction.set("include_barrier", o.extraction.include_barrier);
    j.set("extraction", std::move(extraction));

    Json timing;
    timing.set("t_precharge_off", json_of_double(o.timing.t_precharge_off));
    timing.set("t_wl_on", json_of_double(o.timing.t_wl_on));
    timing.set("edge_time", json_of_double(o.timing.edge_time));
    j.set("timing", std::move(timing));

    Json read;
    read.set("nominal_steps", o.read.nominal_steps);
    read.set("min_window", json_of_double(o.read.min_window));
    read.set("window_per_cell", json_of_double(o.read.window_per_cell));
    read.set("max_retries", o.read.max_retries);
    read.set("method", spice::integration_method_tokens.name(o.read.method));
    read.set("accuracy", sram::to_string(o.read.accuracy));
    if (o.read.solver) read.set("solver", sram::to_string(*o.read.solver));
    j.set("read", std::move(read));

    Json netlist;
    netlist.set("vss_strap_interval", o.netlist.vss_strap_interval);
    netlist.set("vss_strap_resistance",
                json_of_double(o.netlist.vss_strap_resistance));
    netlist.set("vss_rail_sharing",
                json_of_double(o.netlist.vss_rail_sharing));
    j.set("netlist", std::move(netlist));

    Json write_timing;
    write_timing.set("t_precharge_off",
                     json_of_double(o.write_timing.t_precharge_off));
    write_timing.set("t_drive_on",
                     json_of_double(o.write_timing.t_drive_on));
    write_timing.set("edge_time", json_of_double(o.write_timing.edge_time));
    j.set("write_timing", std::move(write_timing));

    Json write;
    write.set("nominal_steps", o.write.nominal_steps);
    write.set("window", json_of_double(o.write.window));
    write.set("window_per_cell", json_of_double(o.write.window_per_cell));
    write.set("accuracy", sram::to_string(o.write.accuracy));
    if (o.write.solver) {
        write.set("solver", sram::to_string(*o.write.solver));
    }
    j.set("write", std::move(write));

    Json disturb;
    disturb.set("nominal_steps", o.disturb.nominal_steps);
    disturb.set("window", json_of_double(o.disturb.window));
    disturb.set("window_per_cell",
                json_of_double(o.disturb.window_per_cell));
    disturb.set("accuracy", sram::to_string(o.disturb.accuracy));
    if (o.disturb.solver) {
        disturb.set("solver", sram::to_string(*o.disturb.solver));
    }
    j.set("disturb", std::move(disturb));

    Json surrogate;
    surrogate.set("design_span_k",
                  json_of_double(o.surrogate.design_span_k));
    surrogate.set("holdout_points", o.surrogate.holdout_points);
    surrogate.set("budget_rel", json_of_double(o.surrogate.budget_rel));
    j.set("surrogate", std::move(surrogate));
    // The cache options (o.cache) are deliberately NOT fingerprinted —
    // see the canonical-hash contract in serialize.h.
    return j;
}

/// Key material of a case: negative overlay budgets collapse onto -1
/// (every "use the technology default" spelling shares one entry).
void set_case(Json& j, Query_case c)
{
    if (c.ol_3sigma < 0.0) c.ol_3sigma = -1.0;
    fields(c, Encoder{j});
}

/// The members every result key starts with: what is keyed, the
/// encoding version and the configuration fingerprint.
Json key_head(std::string_view kind, std::uint64_t fingerprint)
{
    Json j;
    j.set("kind", kind);
    j.set("version", serialization_version);
    j.set("fingerprint", util::hex16(fingerprint));
    return j;
}

} // namespace

std::uint64_t config_fingerprint(const tech::Technology& tech,
                                 const Study_options& opts)
{
    Json j;
    j.set("kind", "config");
    j.set("version", serialization_version);
    j.set("technology", json_of_technology(tech));
    j.set("options", json_of_study_options(opts));
    return util::fnv1a(j.dump());
}

util::Json canonical_query_json(const Study_session& session,
                                const Query& q)
{
    const Study_options& opts = session.options();

    // Resolved execution policies per measurement path, via the same
    // public contract run() applies (query override, else session option,
    // through sram/solver_policy.h).  All three paths are keyed even for
    // metrics that touch only one — conservative: an irrelevant-option
    // change costs a spurious miss, never a wrong hit.
    const sram::Sim_accuracy read_acc =
        q.accuracy.value_or(opts.read.accuracy);
    const sram::Sim_accuracy write_acc =
        q.accuracy.value_or(opts.write.accuracy);
    const sram::Sim_accuracy disturb_acc =
        q.accuracy.value_or(opts.disturb.accuracy);

    Json j = key_head("query",
                      config_fingerprint(session.technology(), opts));
    j.set("metric", to_string(q.metric));
    // Cases with the session-default word_lines resolved.
    Json_array cases;
    cases.reserve(q.cases.size());
    for (Query_case c : q.cases) {
        if (c.word_lines <= 0) c.word_lines = opts.array.word_lines;
        set_case(cases.emplace_back(), c);
    }
    j.set("cases", std::move(cases));

    Json accuracy;
    accuracy.set("read", sram::to_string(read_acc));
    accuracy.set("write", sram::to_string(write_acc));
    accuracy.set("disturb", sram::to_string(disturb_acc));
    j.set("accuracy", std::move(accuracy));

    // All three paths resolve through the sram/solver_policy.h contract.
    // An unresolvable combination (an explicit reuse tier under the
    // reference oracle) on a path this query never actually executes must
    // not abort key derivation — key it as the conflict it is; the path
    // that does execute still throws where it always did.
    const auto solver_token =
        [&q](sram::Sim_accuracy acc,
             std::optional<spice::Solver_policy> fallback) -> std::string {
        const std::optional<spice::Solver_policy> requested =
            q.solver ? q.solver : fallback;
        try {
            return std::string(sram::to_string(
                sram::resolve_solver_policy(acc, requested)));
        } catch (const util::Precondition_error&) {
            return "conflict:" +
                   std::string(sram::to_string(*requested));
        }
    };
    Json solver;
    solver.set("read", solver_token(read_acc, opts.read.solver));
    solver.set("write", solver_token(write_acc, opts.write.solver));
    solver.set("disturb", solver_token(disturb_acc, opts.disturb.solver));
    j.set("solver", std::move(solver));

    j.set("mc", Encoder::of(q.mc));
    j.set("tdp_engine", to_string(q.tdp_engine));
    j.set("twp_engine", to_string(q.twp_engine));
    return j;
}

std::uint64_t query_key(const Study_session& session, const Query& q)
{
    return util::fnv1a(canonical_query_json(session, q).dump());
}

std::uint64_t corner_key(std::uint64_t fingerprint,
                         tech::Patterning_option option, int word_lines,
                         double ol_3sigma)
{
    Json j = key_head("corner", fingerprint);
    set_case(j, {option, word_lines, ol_3sigma});
    return util::fnv1a(j.dump());
}

std::uint64_t nominal_key(std::uint64_t fingerprint, std::string_view kind,
                          int word_lines, sram::Sim_accuracy accuracy,
                          spice::Solver_policy solver)
{
    Json j = key_head(kind, fingerprint);
    j.set("word_lines", word_lines);
    j.set("accuracy", sram::to_string(accuracy));
    j.set("solver", sram::to_string(solver));
    return util::fnv1a(j.dump());
}

std::uint64_t surface_key(std::uint64_t fingerprint, Metric metric,
                          tech::Patterning_option option, int word_lines,
                          double ol_3sigma, sram::Sim_accuracy accuracy,
                          spice::Solver_policy solver)
{
    Json j = key_head("surface", fingerprint);
    j.set("metric", to_string(metric));
    set_case(j, {option, word_lines, ol_3sigma});
    j.set("accuracy", sram::to_string(accuracy));
    j.set("solver", sram::to_string(solver));
    return util::fnv1a(j.dump());
}

} // namespace mpsram::core
