"""
Many agents, restricted valuations
==================================

Two settings admit EF1 + maximal schedules for any number of agents:

* identical dichotomous values (every chore "heavy" or "light") on a path,
  for four or more agents, via a weighted round robin over meta agents;
* identical values on any graph whose components have at most n chores,
  via a component-wise round robin ordered by the agents' burdens.
"""

import random

from choresched import (
    check_ef,
    check_ef1,
    envy_graph,
    is_complete,
    is_maximal,
    path_instance,
    solve_identical_bounded_components,
)
from choresched.generate import random_bounded_components_instance
from choresched.n_agent import dichotomous_path_solution

# --- Weighted round robin for heavy/light chores on a path ------------------
#
# Agents pair up into meta agents (one triple when n is odd).  Meta agents
# deal themselves the heavy chores left to right, then the light ones,
# starting right after the last heavy pick.  Dummy isolated chores pad
# everyone to the same counts, each pair/triple splits its pile
# conflict-free, and the dummies vanish.

H, L = -9, -2
values = [H, L, H, H, L, L, H, L, H, L, H]
inst = path_instance([values] * 5)
sol = dichotomous_path_solution(inst)
print(f"5 agents, {len(values)} chores, heavy={H} light={L}")
print("padded run is exactly envy-free:",
      check_ef(sol.padded_schedule, sol.padded_instance).holds)
for agent in range(5):
    bundle = sorted(sol.schedule.bundle(agent))
    h = sum(1 for c in bundle if values[c] == H)
    print(f"  agent {agent}: {bundle}  ({h} heavy, {len(bundle) - h} light)")
print("complete:", is_complete(sol.schedule),
      " EF1:", check_ef1(sol.schedule, inst).holds)
print()

# --- Component-wise round robin under identical values ----------------------
#
# Each component hands at most one chore to each agent.  Before a component
# is dealt, the burdens so far decide who picks first: the least burdened
# agents, each grabbing the most disliked chore still available.  Because
# values are identical, that is a reverse topological order of the envy
# graph, which stays acyclic; the solver checks the graph once, at the end.

rng = random.Random(11)
inst = random_bounded_components_instance(rng, n=3, m=10)
schedule = solve_identical_bounded_components(inst)
print("3 agents, components of at most 3 chores:")
for agent in range(3):
    bundle = sorted(schedule.bundle(agent))
    print(f"  agent {agent}: {bundle}  (value {inst.value(agent, bundle)})")
print("EF1:", check_ef1(schedule, inst).holds,
      " maximal:", is_maximal(schedule, inst.graph()),
      " envy graph acyclic:", envy_graph(schedule, inst).is_acyclic())
