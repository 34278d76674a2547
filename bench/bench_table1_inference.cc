// Reproduces the paper's worked rewriting examples on the Fig 1 schema:
//   - Tab 1: the triple sets inferred for phi4 = livesIn/isLocatedIn+/
//     dealsWith+ and its sub-terms (Example 10);
//   - Fig 7: the preliminary simplification example;
//   - Example 13: the final rewritten query RS(phi4).

#include <cstdio>
#include <string>
#include <vector>

#include "algebra/path_parser.h"
#include "api/stages.h"  // white-box: this bench exercises the rewrite stage
#include "benchsup/harness.h"
#include "core/simplifier.h"
#include "core/type_inference.h"
#include "query/query_parser.h"
#include "schema/schema_parser.h"

namespace gqopt {
namespace {

GraphSchema Fig1Schema() {
  auto schema = ParseSchema(R"(
node PERSON {name:string, age:int}
node CITY {name:string}
node PROPERTY {address:string}
node REGION {name:string}
node COUNTRY {name:string}
edge PERSON -isMarriedTo-> PERSON
edge PERSON -livesIn-> CITY
edge PERSON -owns-> PROPERTY
edge PROPERTY -isLocatedIn-> CITY
edge CITY -isLocatedIn-> REGION
edge REGION -isLocatedIn-> COUNTRY
edge COUNTRY -dealsWith-> COUNTRY
)");
  if (!schema.ok()) {
    std::fprintf(stderr, "%s\n", schema.status().ToString().c_str());
    std::exit(1);
  }
  return *schema;
}

void PrintTriples(const std::string& term, const GraphSchema& schema) {
  auto expr = ParsePathExpr(term);
  if (!expr.ok()) {
    std::fprintf(stderr, "%s\n", expr.status().ToString().c_str());
    return;
  }
  auto inferred = InferTriples(*expr, schema);
  if (!inferred.ok()) {
    std::printf("  %-28s -> %s\n", term.c_str(),
                inferred.status().ToString().c_str());
    return;
  }
  std::printf("  TS(%s): %zu triple(s)\n", term.c_str(),
              inferred->triples.size());
  for (const SchemaTriple& t : inferred->triples) {
    std::printf("    %s\n", t.ToString().c_str());
  }
}

}  // namespace
}  // namespace gqopt

int main() {
  using namespace gqopt;
  GraphSchema schema = Fig1Schema();

  std::printf("== Table 1: inference on phi4 = livesIn/isLocatedIn+/"
              "dealsWith+ (Fig 1 schema) ==\n");
  for (const char* term :
       {"livesIn", "isLocatedIn+", "dealsWith+", "livesIn/isLocatedIn+",
        "livesIn/isLocatedIn+/dealsWith+"}) {
    PrintTriples(term, schema);
  }

  std::printf("\n== Fig 7: preliminary path simplification ==\n");
  auto red = ParsePathExpr(
      "(((owns[isMarriedTo+/livesIn/dealsWith+])/(isLocatedIn+)+)+)+");
  std::printf("  phi_red = %s\n", (*red)->ToString().c_str());
  std::printf("  phi_opt = %s\n", SimplifyPath(*red)->ToString().c_str());

  std::printf("\n== Example 13: schema-enriched query RS(phi4) ==\n");
  auto query =
      ParseUcqt("x1, x2 <- (x1, livesIn/isLocatedIn+/dealsWith+, x2)");
  RewriteOptions paper_form;  // Example 13 is the annotated form
  paper_form.enable_annotations = true;
  auto rewritten = RewriteQuery(*query, schema, paper_form);
  std::printf("  input:     %s\n", query->ToString().c_str());
  std::printf("  rewritten: %s\n",
              rewritten->query.ToString().c_str());
  std::printf("  transitive closures eliminated: %zu of %zu\n",
              rewritten->stats.eliminated_closures(),
              rewritten->stats.closures.size());
  return 0;
}
