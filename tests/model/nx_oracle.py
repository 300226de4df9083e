"""networkx views of task graphs, for tests that use networkx as an oracle.

The program itself does not depend on networkx; these helpers rebuild a
:class:`networkx.DiGraph` from a graph's public ``tasks`` and ``channels``.
"""

import networkx as nx

from repro.model.taskgraph import TaskGraph


def to_digraph(graph: TaskGraph) -> nx.DiGraph:
    """The dependency structure of ``graph`` as a :class:`networkx.DiGraph`.

    Nodes carry a ``task`` attribute, edges a ``channel`` attribute.
    """
    digraph = nx.DiGraph(name=graph.name)
    for task in graph.tasks:
        digraph.add_node(task.name, task=task)
    for channel in graph.channels:
        digraph.add_edge(channel.src, channel.dst, channel=channel)
    return digraph
