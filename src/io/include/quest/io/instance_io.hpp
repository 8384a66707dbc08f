// quest/io/instance_io.hpp
//
// JSON (de)serialization of the problem model, so instances, precedence
// graphs and plans can be shipped between tools, archived next to
// experiment outputs, and re-run bit-for-bit.
//
// Document shape:
//   {
//     "name": "clustered-12",
//     "services": [ {"name": "WS0", "cost": 1.5, "selectivity": 0.4}, ... ],
//     "transfer": [ [0, 1.2, ...], ... ],          // n x n, zero diagonal
//     "sink_transfer": [0, 0, ...],                // optional
//     "precedence": [ [0, 5], [1, 2], ... ]        // optional, edges
//   }

#pragma once

#include <optional>
#include <string>

#include "quest/constraints/precedence.hpp"
#include "quest/io/json.hpp"
#include "quest/model/instance.hpp"
#include "quest/model/plan.hpp"

namespace quest::io {

/// An instance plus optional precedence constraints, as stored on disk.
struct Instance_document {
  model::Instance instance;
  std::optional<constraints::Precedence_graph> precedence;
};

/// Serializes an instance (and optional precedence edges) to JSON.
Json to_json(const model::Instance& instance,
             const constraints::Precedence_graph* precedence = nullptr);

/// Parses a document produced by to_json (or written by hand).
/// Throws Parse_error on malformed documents (wrong matrix shape,
/// negative costs, cyclic precedence, ...). Members may come in any
/// order; unknown members are ignored, and of duplicates the first wins.
Instance_document instance_from_json(const Json& json);

/// Decodes the document at the reader's position straight from the text,
/// without building a Json: the same decoder as instance_from_json, so
/// the schema, its checks and its messages are defined once.
Instance_document read_instance(Json_reader& in);

/// Serializes a plan as a bare array of service ids.
Json to_json(const model::Plan& plan);

/// Parses a plan; validates ids against `n`.
model::Plan plan_from_json(const Json& json, std::size_t n);

/// File convenience wrappers (pretty-printed, trailing newline).
void save_instance(const std::string& path, const model::Instance& instance,
                   const constraints::Precedence_graph* precedence = nullptr);
Instance_document load_instance(const std::string& path);

}  // namespace quest::io
