#include "topology_file.hpp"

#include <fstream>
#include <sstream>

namespace drift::graphcli {

drift::graph::TopologyParseResult load_topology_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    drift::graph::TopologyParseResult result;
    result.errors.push_back("cannot open '" + path + "'");
    return result;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return drift::graph::parse_topology(buffer.str());
}

}  // namespace drift::graphcli
