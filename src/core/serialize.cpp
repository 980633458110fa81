#include "core/serialize.h"

#include <utility>

#include "sram/solver_policy.h"
#include "util/contracts.h"
#include "util/hash.h"

namespace mpsram::core {

namespace {

using util::Json;
using util::Json_array;
using util::json_of_double;

// --- enum token helpers ------------------------------------------------------
// Dedicated parsers (not the env-pin parse_* functions) so a corrupted
// cache entry reports a serialization error, not a bogus environment
// message.

[[noreturn]] void bad_token(const char* what, const std::string& token,
                            const std::string& accepted = {})
{
    throw util::Precondition_error(
        std::string("unknown ") + what + " token '" + token + "'" +
        (accepted.empty() ? "" : " (accepted: " + accepted + ")"));
}

Metric metric_of_string(const std::string& s)
{
    for (int i = 0; i < 9; ++i) {
        const auto m = static_cast<Metric>(i);
        if (to_string(m) == s) return m;
    }
    bad_token("metric", s);
}

tech::Patterning_option option_of_string(const std::string& s)
{
    for (const auto option : tech::all_patterning_options) {
        if (tech::to_string(option) == s) return option;
    }
    bad_token("patterning option", s);
}

Tdp_engine tdp_engine_of_string(const std::string& s)
{
    for (const auto e : {Tdp_engine::formula, Tdp_engine::spice,
                         Tdp_engine::surrogate}) {
        if (to_string(e) == s) return e;
    }
    bad_token("tdp engine", s);
}

Twp_engine twp_engine_of_string(const std::string& s)
{
    for (const auto e : {Twp_engine::spice, Twp_engine::formula,
                         Twp_engine::surrogate}) {
        if (to_string(e) == s) return e;
    }
    bad_token("twp engine", s);
}

const char* string_of_sampling(mc::Sampling s)
{
    return s == mc::Sampling::latin_hypercube ? "latin_hypercube"
                                              : "pseudo_random";
}

mc::Sampling sampling_of_string(const std::string& s)
{
    if (s == "pseudo_random") return mc::Sampling::pseudo_random;
    if (s == "latin_hypercube") return mc::Sampling::latin_hypercube;
    bad_token("sampling scheme", s);
}

sram::Sim_accuracy accuracy_of_string(const std::string& s)
{
    if (s == "fast") return sram::Sim_accuracy::fast;
    if (s == "reference") return sram::Sim_accuracy::reference;
    bad_token("sim accuracy", s);
}

spice::Solver_policy solver_of_string(const std::string& s)
{
    for (const auto p : sram::solver_policies) {
        if (sram::to_string(p) == s) return p;
    }
    bad_token("solver policy", s, sram::solver_policy_tokens());
}

const char* string_of_color(geom::Mask_color c)
{
    switch (c) {
    case geom::Mask_color::unassigned: return "unassigned";
    case geom::Mask_color::mask_a: return "mask_a";
    case geom::Mask_color::mask_b: return "mask_b";
    case geom::Mask_color::mask_c: return "mask_c";
    }
    return "unassigned";
}

geom::Mask_color color_of_string(const std::string& s)
{
    for (const auto c : {geom::Mask_color::unassigned,
                         geom::Mask_color::mask_a, geom::Mask_color::mask_b,
                         geom::Mask_color::mask_c}) {
        if (string_of_color(c) == s) return c;
    }
    bad_token("mask color", s);
}

const char* string_of_sadp(geom::Sadp_class c)
{
    switch (c) {
    case geom::Sadp_class::none: return "none";
    case geom::Sadp_class::mandrel: return "mandrel";
    case geom::Sadp_class::gap: return "gap";
    }
    return "none";
}

geom::Sadp_class sadp_of_string(const std::string& s)
{
    for (const auto c : {geom::Sadp_class::none, geom::Sadp_class::mandrel,
                         geom::Sadp_class::gap}) {
        if (string_of_sadp(c) == s) return c;
    }
    bad_token("sadp class", s);
}

int int_of_json(const Json& j)
{
    return static_cast<int>(j.as_double());
}

std::vector<double> doubles_of_json(const Json& j)
{
    std::vector<double> out;
    out.reserve(j.as_array().size());
    for (const Json& v : j.as_array()) out.push_back(double_of_json(v));
    return out;
}

Json json_of_doubles(const std::vector<double>& values)
{
    Json_array out;
    out.reserve(values.size());
    for (const double v : values) out.push_back(json_of_double(v));
    return Json(std::move(out));
}

// --- cases -------------------------------------------------------------------

Json json_of_case(const Query_case& c)
{
    Json j;
    j.set("option", tech::to_string(c.option));
    j.set("word_lines", c.word_lines);
    j.set("ol_3sigma", json_of_double(c.ol_3sigma));
    return j;
}

Query_case case_of_json(const Json& j)
{
    Query_case c;
    c.option = option_of_string(j.at("option").as_string());
    c.word_lines = int_of_json(j.at("word_lines"));
    c.ol_3sigma = double_of_json(j.at("ol_3sigma"));
    return c;
}

// --- rows --------------------------------------------------------------------

Json json_of_summary(const util::Sample_summary& s)
{
    Json j;
    j.set("count", static_cast<std::uint64_t>(s.count));
    j.set("mean", json_of_double(s.mean));
    j.set("stddev", json_of_double(s.stddev));
    j.set("min", json_of_double(s.min));
    j.set("max", json_of_double(s.max));
    j.set("median", json_of_double(s.median));
    j.set("p01", json_of_double(s.p01));
    j.set("p99", json_of_double(s.p99));
    return j;
}

util::Sample_summary summary_of_json(const Json& j)
{
    util::Sample_summary s;
    s.count = static_cast<std::size_t>(j.at("count").as_u64());
    s.mean = double_of_json(j.at("mean"));
    s.stddev = double_of_json(j.at("stddev"));
    s.min = double_of_json(j.at("min"));
    s.max = double_of_json(j.at("max"));
    s.median = double_of_json(j.at("median"));
    s.p01 = double_of_json(j.at("p01"));
    s.p99 = double_of_json(j.at("p99"));
    return s;
}

struct Row_writer {
    Json operator()(const Worst_case_row& r) const
    {
        Json j;
        j.set("type", "worst_case");
        j.set("option", tech::to_string(r.option));
        j.set("corner", r.corner);
        j.set("cbl_percent", json_of_double(r.cbl_percent));
        j.set("rbl_percent", json_of_double(r.rbl_percent));
        j.set("vss_r_percent", json_of_double(r.vss_r_percent));
        return j;
    }
    Json operator()(const Read_row& r) const
    {
        Json j;
        j.set("type", "read");
        j.set("td_nominal", json_of_double(r.td_nominal));
        j.set("td_varied", json_of_double(r.td_varied));
        j.set("tdp_percent", json_of_double(r.tdp_percent));
        return j;
    }
    Json operator()(const Nominal_td_row& r) const
    {
        Json j;
        j.set("type", "nominal_td");
        j.set("td_simulation", json_of_double(r.td_simulation));
        j.set("td_formula", json_of_double(r.td_formula));
        return j;
    }
    Json operator()(const Tdp_row& r) const
    {
        Json j;
        j.set("type", "worst_case_tdp");
        j.set("tdp_simulation", json_of_double(r.tdp_simulation));
        j.set("tdp_formula", json_of_double(r.tdp_formula));
        return j;
    }
    Json operator()(const Write_row& r) const
    {
        Json j;
        j.set("type", "write");
        j.set("tw_nominal", json_of_double(r.tw_nominal));
        j.set("tw_varied", json_of_double(r.tw_varied));
        j.set("twp_percent", json_of_double(r.twp_percent));
        return j;
    }
    Json operator()(const Nominal_tw_row& r) const
    {
        Json j;
        j.set("type", "nominal_tw");
        j.set("tw_simulation", json_of_double(r.tw_simulation));
        j.set("tw_formula", json_of_double(r.tw_formula));
        return j;
    }
    Json operator()(const Disturb_row& r) const
    {
        Json j;
        j.set("type", "disturb");
        j.set("v_bump_nominal", json_of_double(r.v_bump_nominal));
        j.set("v_bump_varied", json_of_double(r.v_bump_varied));
        j.set("disturb_percent", json_of_double(r.disturb_percent));
        return j;
    }
    Json operator()(const mc::Tdp_distribution& d) const
    {
        Json j;
        j.set("type", "distribution");
        j.set("tdp", json_of_doubles(d.tdp));
        j.set("rvar", json_of_doubles(d.rvar));
        j.set("cvar", json_of_doubles(d.cvar));
        j.set("summary", json_of_summary(d.summary));
        return j;
    }
};

Row_value row_of_json(const Json& j)
{
    const std::string& type = j.at("type").as_string();
    if (type == "worst_case") {
        Worst_case_row r;
        r.option = option_of_string(j.at("option").as_string());
        r.corner = j.at("corner").as_string();
        r.cbl_percent = double_of_json(j.at("cbl_percent"));
        r.rbl_percent = double_of_json(j.at("rbl_percent"));
        r.vss_r_percent = double_of_json(j.at("vss_r_percent"));
        return r;
    }
    if (type == "read") {
        Read_row r;
        r.td_nominal = double_of_json(j.at("td_nominal"));
        r.td_varied = double_of_json(j.at("td_varied"));
        r.tdp_percent = double_of_json(j.at("tdp_percent"));
        return r;
    }
    if (type == "nominal_td") {
        Nominal_td_row r;
        r.td_simulation = double_of_json(j.at("td_simulation"));
        r.td_formula = double_of_json(j.at("td_formula"));
        return r;
    }
    if (type == "worst_case_tdp") {
        Tdp_row r;
        r.tdp_simulation = double_of_json(j.at("tdp_simulation"));
        r.tdp_formula = double_of_json(j.at("tdp_formula"));
        return r;
    }
    if (type == "write") {
        Write_row r;
        r.tw_nominal = double_of_json(j.at("tw_nominal"));
        r.tw_varied = double_of_json(j.at("tw_varied"));
        r.twp_percent = double_of_json(j.at("twp_percent"));
        return r;
    }
    if (type == "nominal_tw") {
        Nominal_tw_row r;
        r.tw_simulation = double_of_json(j.at("tw_simulation"));
        r.tw_formula = double_of_json(j.at("tw_formula"));
        return r;
    }
    if (type == "disturb") {
        Disturb_row r;
        r.v_bump_nominal = double_of_json(j.at("v_bump_nominal"));
        r.v_bump_varied = double_of_json(j.at("v_bump_varied"));
        r.disturb_percent = double_of_json(j.at("disturb_percent"));
        return r;
    }
    if (type == "distribution") {
        mc::Tdp_distribution d;
        d.tdp = doubles_of_json(j.at("tdp"));
        d.rvar = doubles_of_json(j.at("rvar"));
        d.cvar = doubles_of_json(j.at("cvar"));
        d.summary = summary_of_json(j.at("summary"));
        return d;
    }
    bad_token("result row type", type);
}

} // namespace

// --- query -------------------------------------------------------------------

util::Json json_of_query(const Query& q)
{
    Json j;
    j.set("metric", to_string(q.metric));
    Json_array cases;
    cases.reserve(q.cases.size());
    for (const Query_case& c : q.cases) cases.push_back(json_of_case(c));
    j.set("cases", std::move(cases));
    if (q.accuracy) j.set("accuracy", sram::to_string(*q.accuracy));
    if (q.solver) j.set("solver", sram::to_string(*q.solver));
    Json mc;
    mc.set("samples", q.mc.samples);
    mc.set("seed", q.mc.seed);
    mc.set("truncate_k", json_of_double(q.mc.truncate_k));
    mc.set("sampling", string_of_sampling(q.mc.sampling));
    mc.set("store_samples", q.mc.store_samples);
    j.set("mc", std::move(mc));
    j.set("tdp_engine", to_string(q.tdp_engine));
    j.set("twp_engine", to_string(q.twp_engine));
    return j;
}

Query query_of_json(const util::Json& j)
{
    Query q(metric_of_string(j.at("metric").as_string()));
    for (const Json& c : j.at("cases").as_array()) {
        q.cases.push_back(case_of_json(c));
    }
    if (const Json* acc = j.find("accuracy")) {
        q.accuracy = accuracy_of_string(acc->as_string());
    }
    if (const Json* sol = j.find("solver")) {
        q.solver = solver_of_string(sol->as_string());
    }
    const Json& mc = j.at("mc");
    q.mc.samples = int_of_json(mc.at("samples"));
    q.mc.seed = mc.at("seed").as_u64();
    q.mc.truncate_k = double_of_json(mc.at("truncate_k"));
    q.mc.sampling = sampling_of_string(mc.at("sampling").as_string());
    q.mc.store_samples = mc.at("store_samples").as_bool();
    q.tdp_engine = tdp_engine_of_string(j.at("tdp_engine").as_string());
    q.twp_engine = twp_engine_of_string(j.at("twp_engine").as_string());
    return q;
}

// --- result table ------------------------------------------------------------

util::Json json_of_result_table(const Result_table& t)
{
    Json j;
    j.set("metric", to_string(t.metric()));
    Json_array cases;
    Json_array rows;
    cases.reserve(t.size());
    rows.reserve(t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
        cases.push_back(json_of_case(t.axes(i)));
        rows.push_back(std::visit(Row_writer{}, t.raw(i)));
    }
    j.set("cases", std::move(cases));
    j.set("rows", std::move(rows));
    return j;
}

Result_table result_table_of_json(const util::Json& j)
{
    const Metric metric = metric_of_string(j.at("metric").as_string());
    std::vector<Query_case> cases;
    for (const Json& c : j.at("cases").as_array()) {
        cases.push_back(case_of_json(c));
    }
    std::vector<Row_value> rows;
    for (const Json& r : j.at("rows").as_array()) {
        rows.push_back(row_of_json(r));
    }
    return Result_table(metric, std::move(cases), std::move(rows));
}

// --- worst case --------------------------------------------------------------

util::Json json_of_worst_case(const mc::Worst_case_result& wc)
{
    Json corner;
    corner.set("sample", json_of_doubles(wc.corner.sample));
    corner.set("metric", json_of_double(wc.corner.metric));

    Json variation;
    variation.set("r_factor", json_of_double(wc.variation.r_factor));
    variation.set("c_factor", json_of_double(wc.variation.c_factor));

    Json_array wires;
    wires.reserve(wc.realized.size());
    for (const geom::Wire& w : wc.realized.wires()) {
        Json wire;
        wire.set("net", w.net);
        wire.set("y_center", json_of_double(w.y_center));
        wire.set("width", json_of_double(w.width));
        wire.set("length", json_of_double(w.length));
        wire.set("color", string_of_color(w.color));
        wire.set("sadp", string_of_sadp(w.sadp));
        wires.push_back(std::move(wire));
    }

    Json j;
    j.set("corner", std::move(corner));
    j.set("variation", std::move(variation));
    j.set("vss_r_factor", json_of_double(wc.vss_r_factor));
    j.set("realized", std::move(wires));
    return j;
}

mc::Worst_case_result worst_case_of_json(const util::Json& j)
{
    mc::Worst_case_result wc;
    const Json& corner = j.at("corner");
    wc.corner.sample = doubles_of_json(corner.at("sample"));
    wc.corner.metric = double_of_json(corner.at("metric"));
    const Json& variation = j.at("variation");
    wc.variation.r_factor = double_of_json(variation.at("r_factor"));
    wc.variation.c_factor = double_of_json(variation.at("c_factor"));
    wc.vss_r_factor = double_of_json(j.at("vss_r_factor"));

    std::vector<geom::Wire> wires;
    for (const Json& wire : j.at("realized").as_array()) {
        geom::Wire w;
        w.net = wire.at("net").as_string();
        w.y_center = double_of_json(wire.at("y_center"));
        w.width = double_of_json(wire.at("width"));
        w.length = double_of_json(wire.at("length"));
        w.color = color_of_string(wire.at("color").as_string());
        w.sadp = sadp_of_string(wire.at("sadp").as_string());
        wires.push_back(std::move(w));
    }
    wc.realized = geom::Wire_array(std::move(wires));
    return wc;
}

// --- surrogate surfaces ------------------------------------------------------

namespace {

Json json_of_surface(const analytic::Response_surface& s)
{
    Json j;
    j.set("scales", json_of_doubles(s.scales()));
    j.set("coeffs", json_of_doubles(s.coefficients()));
    return j;
}

analytic::Response_surface surface_of_json(const Json& j)
{
    return analytic::Response_surface::restore(
        doubles_of_json(j.at("scales")), doubles_of_json(j.at("coeffs")));
}

} // namespace

util::Json json_of_surfaces(const analytic::Yield_surfaces& s)
{
    Json j;
    j.set("metric", json_of_surface(s.metric));
    j.set("rvar", json_of_surface(s.rvar));
    j.set("cvar", json_of_surface(s.cvar));
    j.set("holdout_rel", json_of_double(s.holdout_rel));
    j.set("design_span", json_of_double(s.design_span));
    j.set("design_points", static_cast<std::uint64_t>(s.design_points));
    j.set("holdout_points", static_cast<std::uint64_t>(s.holdout_points));
    return j;
}

analytic::Yield_surfaces surfaces_of_json(const util::Json& j)
{
    analytic::Yield_surfaces s;
    s.metric = surface_of_json(j.at("metric"));
    s.rvar = surface_of_json(j.at("rvar"));
    s.cvar = surface_of_json(j.at("cvar"));
    s.holdout_rel = double_of_json(j.at("holdout_rel"));
    s.design_span = double_of_json(j.at("design_span"));
    s.design_points =
        static_cast<std::size_t>(j.at("design_points").as_u64());
    s.holdout_points =
        static_cast<std::size_t>(j.at("holdout_points").as_u64());
    return s;
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
    read.set("method",
             o.read.method == spice::Integration_method::trapezoidal
                 ? "trapezoidal"
                 : "backward_euler");
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

/// Canonical resolved case for key material: session-default word_lines
/// resolved, negative overlay budgets collapsed onto -1 (every "use the
/// technology default" spelling shares one entry).
Json canonical_case(const Query_case& c, int default_word_lines)
{
    Query_case resolved = c;
    if (resolved.word_lines <= 0) resolved.word_lines = default_word_lines;
    if (resolved.ol_3sigma < 0.0) resolved.ol_3sigma = -1.0;
    return json_of_case(resolved);
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

    Json j;
    j.set("kind", "query");
    j.set("version", serialization_version);
    j.set("fingerprint",
          util::hex16(config_fingerprint(session.technology(), opts)));
    j.set("metric", to_string(q.metric));
    Json_array cases;
    cases.reserve(q.cases.size());
    for (const Query_case& c : q.cases) {
        cases.push_back(canonical_case(c, opts.array.word_lines));
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

    Json mc;
    mc.set("samples", q.mc.samples);
    mc.set("seed", q.mc.seed);
    mc.set("truncate_k", json_of_double(q.mc.truncate_k));
    mc.set("sampling", string_of_sampling(q.mc.sampling));
    mc.set("store_samples", q.mc.store_samples);
    j.set("mc", std::move(mc));
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
    Json j;
    j.set("kind", "corner");
    j.set("version", serialization_version);
    j.set("fingerprint", util::hex16(fingerprint));
    j.set("option", tech::to_string(option));
    j.set("word_lines", word_lines);
    j.set("ol_3sigma",
          json_of_double(ol_3sigma < 0.0 ? -1.0 : ol_3sigma));
    return util::fnv1a(j.dump());
}

std::uint64_t nominal_key(std::uint64_t fingerprint, std::string_view kind,
                          int word_lines, sram::Sim_accuracy accuracy,
                          spice::Solver_policy solver)
{
    Json j;
    j.set("kind", kind);
    j.set("version", serialization_version);
    j.set("fingerprint", util::hex16(fingerprint));
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
    Json j;
    j.set("kind", "surface");
    j.set("version", serialization_version);
    j.set("fingerprint", util::hex16(fingerprint));
    j.set("metric", to_string(metric));
    j.set("option", tech::to_string(option));
    j.set("word_lines", word_lines);
    j.set("ol_3sigma",
          json_of_double(ol_3sigma < 0.0 ? -1.0 : ol_3sigma));
    j.set("accuracy", sram::to_string(accuracy));
    j.set("solver", sram::to_string(solver));
    return util::fnv1a(j.dump());
}

} // namespace mpsram::core
