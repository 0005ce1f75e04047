"""Walk through the three bases of so(3,2) and the grading."""

from cartancr import liealg


def main():
    grading = liealg.grading_decomposition()
    print("degrees by position:", grading["degrees"])
    print("block dimensions:   ", dict(sorted(grading["dims"].items())))

    std = liealg.build_basis("standard")
    f = liealg.build_basis("f")
    print("\ngrading element Z =", std.names[liealg.Z_INDEX])

    print("\na few brackets in the f basis:")
    sc = f.structure_constants()
    for (b, c) in ((0, 5), (1, 2), (7, 8)):
        comps = {f.names[a]: v.serialize() for a, v in sc.get((b, c), ())}
        print(f"  [{f.names[b]}, {f.names[c]}] = {comps}")

    print("\nKilling form Gram matrix on the f basis (nonzero entries):")
    km = liealg.killing_matrix(f)
    for i in range(liealg.DIM):
        for j in range(i, liealg.DIM):
            if not km[i][j].is_zero():
                print(f"  K({f.names[i]}, {f.names[j]}) = {km[i][j].serialize()}")

    print("\nexpansion of e_-2 across bases:")
    coeffs = f.expand(std.elements[0])
    terms = [f"{c.serialize()} {f.names[k]}"
             for k, c in enumerate(coeffs) if not c.is_zero()]
    print("  e_-2 =", " + ".join(terms))


if __name__ == "__main__":
    main()
