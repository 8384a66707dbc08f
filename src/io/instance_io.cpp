#include "quest/io/instance_io.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <utility>
#include <vector>

namespace quest::io {

using model::Instance;
using model::Plan;
using model::Service;
using model::Service_id;

namespace {

/// A service id: a non-negative integer below `limit`.
Service_id service_id(double d, std::size_t limit, const char* what) {
  if (d < 0 || d != std::floor(d) || d >= static_cast<double>(limit)) {
    throw Parse_error(std::string(what) + ": invalid service id");
  }
  return static_cast<Service_id>(d);
}

/// Json_reader's pull interface over a parsed Json, so instance_from_json
/// runs the decoder that reads documents straight from text.
class Json_cursor {
 public:
  explicit Json_cursor(const Json& root) : value_(&root) {}

  void begin_object() {
    frames_.push_back({&value_->as_object(), nullptr, 0});
  }
  bool next_key(std::string_view& key) {
    Frame& frame = frames_.back();
    if (frame.index == frame.object->size()) {
      frames_.pop_back();
      return false;
    }
    const auto& [name, value] = (*frame.object)[frame.index++];
    key = name;
    value_ = &value;
    return true;
  }
  void begin_array() {
    frames_.push_back({nullptr, &value_->as_array(), 0});
  }
  bool next_element() {
    Frame& frame = frames_.back();
    if (frame.index == frame.array->size()) {
      frames_.pop_back();
      return false;
    }
    value_ = &(*frame.array)[frame.index++];
    return true;
  }
  std::string_view read_string() const { return value_->as_string(); }
  double read_number() const { return value_->as_number(); }
  void skip_value() const {}

 private:
  struct Frame {
    const Json::Object* object;
    const Json::Array* array;
    std::size_t index;
  };
  const Json* value_;
  std::vector<Frame> frames_;
};

template <typename Source>
void read_numbers(Source& in, std::vector<double>& out) {
  in.begin_array();
  while (in.next_element()) out.push_back(in.read_number());
}

template <typename Source>
Service read_service(Source& in) {
  Service service;
  bool has_cost = false;
  bool has_selectivity = false;
  read_object(in, {"name", "cost", "selectivity"}, [&](std::string_view key) {
    if (key == "name") {
      service.name = in.read_string();
    } else if (key == "cost") {
      service.cost = in.read_number();
      has_cost = true;
    } else {
      service.selectivity = in.read_number();
      has_selectivity = true;
    }
  });
  if (!has_cost) throw_missing_key("cost");
  if (!has_selectivity) throw_missing_key("selectivity");
  return service;
}

/// The one instance-document decoder. Members are read in any order, so
/// the shape checks that need n run once the object is closed.
template <typename Source>
Instance_document decode_instance(Source& in) {
  bool has_services = false;
  bool has_transfer = false;
  bool has_sink = false;
  bool has_precedence = false;
  std::vector<Service> services;
  std::vector<double> transfer;  // row-major, as read
  std::size_t rows = 0;
  std::size_t shortest_row = static_cast<std::size_t>(-1);
  std::size_t longest_row = 0;
  std::vector<double> sink;
  std::string name;
  std::vector<std::pair<double, double>> edges;
  read_object(in, {"services", "transfer", "sink_transfer", "name",
                   "precedence"},
              [&](std::string_view key) {
    if (key == "services") {
      has_services = true;
      in.begin_array();
      while (in.next_element()) services.push_back(read_service(in));
    } else if (key == "transfer") {
      has_transfer = true;
      in.begin_array();
      while (in.next_element()) {
        const std::size_t before = transfer.size();
        read_numbers(in, transfer);
        const std::size_t length = transfer.size() - before;
        shortest_row = std::min(shortest_row, length);
        longest_row = std::max(longest_row, length);
        ++rows;
      }
    } else if (key == "sink_transfer") {
      has_sink = true;
      read_numbers(in, sink);
    } else if (key == "name") {
      name = in.read_string();
    } else {
      has_precedence = true;
      in.begin_array();
      while (in.next_element()) {
        double ids[2] = {0.0, 0.0};
        std::size_t count = 0;
        in.begin_array();
        while (in.next_element()) {
          if (count == 2) {
            throw Parse_error("precedence edges must be [from, to] pairs");
          }
          ids[count++] = in.read_number();
        }
        if (count != 2) {
          throw Parse_error("precedence edges must be [from, to] pairs");
        }
        edges.emplace_back(ids[0], ids[1]);
      }
    }
  });

  if (!has_services) throw_missing_key("services");
  const std::size_t n = services.size();
  if (n == 0) throw Parse_error("instance document has no services");
  if (!has_transfer) throw_missing_key("transfer");
  if (rows != n) {
    throw Parse_error("transfer matrix must have one row per service");
  }
  if (shortest_row != n || longest_row != n) {
    throw Parse_error("transfer matrix rows must have n entries");
  }
  if (has_sink && sink.size() != n) {
    throw Parse_error("sink_transfer must have one entry per service");
  }

  Instance_document document{
      // Instance construction re-validates numeric invariants; surface
      // violations as data errors.
      [&]() -> Instance {
        try {
          return Instance(std::move(services),
                          Matrix<double>(n, n, std::move(transfer)),
                          std::move(sink), std::move(name));
        } catch (const Precondition_error& e) {
          throw Parse_error(std::string("invalid instance data: ") +
                            e.what());
        }
      }(),
      std::nullopt};

  if (has_precedence) {
    constraints::Precedence_graph graph(n);
    for (const auto& [from, to] : edges) {
      const Service_id before = service_id(from, n, "precedence");
      const Service_id after = service_id(to, n, "precedence");
      try {
        graph.add_edge(before, after);
      } catch (const Precondition_error& e) {
        throw Parse_error(std::string("invalid precedence edge: ") +
                          e.what());
      }
    }
    document.precedence = std::move(graph);
  }
  return document;
}

}  // namespace

Json to_json(const Instance& instance,
             const constraints::Precedence_graph* precedence) {
  Json document;
  document.set("name", instance.name());

  Json services;
  for (const Service& s : instance.services()) {
    Json entry;
    entry.set("name", s.name);
    entry.set("cost", s.cost);
    entry.set("selectivity", s.selectivity);
    services.push_back(std::move(entry));
  }
  document.set("services", std::move(services));

  Json transfer;
  for (std::size_t i = 0; i < instance.size(); ++i) {
    Json row;
    for (std::size_t j = 0; j < instance.size(); ++j) {
      row.push_back(instance.transfer_matrix().at_unchecked(i, j));
    }
    transfer.push_back(std::move(row));
  }
  document.set("transfer", std::move(transfer));

  bool any_sink = false;
  for (const double s : instance.sink_transfers()) {
    if (s != 0.0) any_sink = true;
  }
  if (any_sink) {
    Json sink;
    for (const double s : instance.sink_transfers()) sink.push_back(s);
    document.set("sink_transfer", std::move(sink));
  }

  if (precedence != nullptr && !precedence->unconstrained()) {
    Json edges;
    for (Service_id u = 0; u < precedence->size(); ++u) {
      for (const Service_id v : precedence->successors(u)) {
        Json edge;
        edge.push_back(std::size_t{u});
        edge.push_back(std::size_t{v});
        edges.push_back(std::move(edge));
      }
    }
    document.set("precedence", std::move(edges));
  }
  return document;
}

Instance_document instance_from_json(const Json& json) {
  Json_cursor cursor(json);
  return decode_instance(cursor);
}

Instance_document read_instance(Json_reader& in) {
  return decode_instance(in);
}

Json to_json(const Plan& plan) {
  Json array;
  for (const Service_id id : plan) array.push_back(std::size_t{id});
  return array;
}

Plan plan_from_json(const Json& json, std::size_t n) {
  std::vector<Service_id> order;
  for (const Json& entry : json.as_array()) {
    order.push_back(service_id(entry.as_number(), n, "plan"));
  }
  Plan plan(std::move(order));
  std::vector<char> seen(n, 0);
  for (const Service_id id : plan) {
    if (seen[id]) throw Parse_error("plan repeats a service");
    seen[id] = 1;
  }
  return plan;
}

void save_instance(const std::string& path, const Instance& instance,
                   const constraints::Precedence_graph* precedence) {
  write_file(path, to_json(instance, precedence).dump(2) + "\n");
}

Instance_document load_instance(const std::string& path) {
  return instance_from_json(Json::parse(read_file(path)));
}

}  // namespace quest::io
