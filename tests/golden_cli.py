"""What `dysonsym` writes for each verb in each format at small sizes.

Each key is the argument list; each value is (exit status, standard
output, standard error), one output line per source line.  The entries
were captured from the program before its output layer was folded into one
writer; the two csv entries that capture wrote malformed were replaced by
the mended output: ``enumerate-marked --format csv`` writes parts
space-separated, and ``verify mod-identity --format csv`` quotes the
identities that hold a comma.
"""

CLI_OUTPUTS = {
    "partitions --n 4 --format json": (
        0,
        "[[4], [3, 1], [2, 2], [2, 1, 1], [1, 1, 1, 1]]\n",
        "5 partitions of 4\n",
    ),
    "partitions --n 4 --format csv": (
        0,
        (
            "partition\n"
            "4\n"
            "3 1\n"
            "2 2\n"
            "2 1 1\n"
            "1 1 1 1\n"
        ),
        "5 partitions of 4\n",
    ),
    "partitions --n 4 --format text": (
        0,
        (
            "4\n"
            "3 1\n"
            "2 2\n"
            "2 1 1\n"
            "1 1 1 1\n"
        ),
        "5 partitions of 4\n",
    ),
    "crank-table --n 5 --format json": (
        0,
        '{"n": 5, "counts": [[-5, 1], [-3, 1], [-1, 1], [0, 1], [1, 1], [3, 1], [5, 1]]}\n',
        "",
    ),
    "crank-table --n 5 --format csv": (
        0,
        (
            "m,count\n"
            "-5,1\n"
            "-3,1\n"
            "-1,1\n"
            "0,1\n"
            "1,1\n"
            "3,1\n"
            "5,1\n"
        ),
        "",
    ),
    "crank-table --n 5 --format text": (
        0,
        (
            "-5\t1\n"
            "-3\t1\n"
            "-1\t1\n"
            "0\t1\n"
            "1\t1\n"
            "3\t1\n"
            "5\t1\n"
        ),
        "",
    ),
    "rank-table --n 5 --format json": (
        0,
        '{"n": 5, "counts": [[-4, 1], [-2, 1], [-1, 1], [0, 1], [1, 1], [2, 1], [4, 1]]}\n',
        "",
    ),
    "rank-table --n 5 --format csv": (
        0,
        (
            "m,count\n"
            "-4,1\n"
            "-2,1\n"
            "-1,1\n"
            "0,1\n"
            "1,1\n"
            "2,1\n"
            "4,1\n"
        ),
        "",
    ),
    "rank-table --n 5 --format text": (
        0,
        (
            "-4\t1\n"
            "-2\t1\n"
            "-1\t1\n"
            "0\t1\n"
            "1\t1\n"
            "2\t1\n"
            "4\t1\n"
        ),
        "",
    ),
    "moments --k 2 --n 5 --format json": (
        0,
        '{"k": 2, "n": 5, "mu": 35, "eta": 21}\n',
        "",
    ),
    "moments --k 2 --n 5 --format csv": (
        0,
        (
            "k,n,mu,eta\n"
            "2,5,35,21\n"
        ),
        "",
    ),
    "moments --k 2 --n 5 --format text": (
        0,
        (
            "mu_2(5) = 35\n"
            "eta_2(5) = 21\n"
        ),
        "",
    ),
    "dyson --n 4 --format json": (
        0,
        (
            '{"alpha": [], "beta": [1, 1, 1, 1]}\n'
            '{"alpha": [1], "beta": [2]}\n'
            '{"alpha": [], "beta": [2, 2]}\n'
            '{"alpha": [2, 2], "beta": []}\n'
            '{"alpha": [1, 1, 1, 1], "beta": []}\n'
        ),
        "5 Dyson symbols of 4\n",
    ),
    "dyson --n 4 --format csv": (
        0,
        (
            "alpha,beta,crank\n"
            ",1 1 1 1,-4\n"
            "1,2,0\n"
            ",2 2,-2\n"
            "2 2,,2\n"
            "1 1 1 1,,4\n"
        ),
        "5 Dyson symbols of 4\n",
    ),
    "dyson --n 4 --format text": (
        0,
        (
            "alpha=() beta=(1, 1, 1, 1) crank=-4\n"
            "alpha=(1,) beta=(2,) crank=0\n"
            "alpha=() beta=(2, 2) crank=-2\n"
            "alpha=(2, 2) beta=() crank=2\n"
            "alpha=(1, 1, 1, 1) beta=() crank=4\n"
        ),
        "5 Dyson symbols of 4\n",
    ),
    "enumerate-marked --k 2 --n 4 --format json": (
        0,
        (
            '{"k": 2, "vectors": [{"alpha": [], "beta": []}, {"alpha": [], "beta": [1, 1, 1]}], "p": [1]}\n'
            '{"k": 2, "vectors": [{"alpha": [], "beta": []}, {"alpha": [1], "beta": [1, 1]}], "p": [1]}\n'
            '{"k": 2, "vectors": [{"alpha": [], "beta": []}, {"alpha": [1, 1], "beta": [1]}], "p": [1]}\n'
            '{"k": 2, "vectors": [{"alpha": [], "beta": []}, {"alpha": [1, 1, 1], "beta": []}], "p": [1]}\n'
            '{"k": 2, "vectors": [{"alpha": [], "beta": [1]}, {"alpha": [], "beta": [1, 1]}], "p": [1]}\n'
            '{"k": 2, "vectors": [{"alpha": [], "beta": [1]}, {"alpha": [1], "beta": [1]}], "p": [1]}\n'
            '{"k": 2, "vectors": [{"alpha": [], "beta": [1]}, {"alpha": [1, 1], "beta": []}], "p": [1]}\n'
            '{"k": 2, "vectors": [{"alpha": [1], "beta": []}, {"alpha": [], "beta": [1, 1]}], "p": [1]}\n'
            '{"k": 2, "vectors": [{"alpha": [1], "beta": []}, {"alpha": [1], "beta": [1]}], "p": [1]}\n'
            '{"k": 2, "vectors": [{"alpha": [1], "beta": []}, {"alpha": [1, 1], "beta": []}], "p": [1]}\n'
            '{"k": 2, "vectors": [{"alpha": [], "beta": [1, 1]}, {"alpha": [], "beta": [1]}], "p": [1]}\n'
            '{"k": 2, "vectors": [{"alpha": [], "beta": [1, 1]}, {"alpha": [1], "beta": []}], "p": [1]}\n'
            '{"k": 2, "vectors": [{"alpha": [1, 1], "beta": []}, {"alpha": [], "beta": [1]}], "p": [1]}\n'
            '{"k": 2, "vectors": [{"alpha": [1, 1], "beta": []}, {"alpha": [1], "beta": []}], "p": [1]}\n'
            '{"k": 2, "vectors": [{"alpha": [], "beta": [1, 1, 1]}, {"alpha": [], "beta": []}], "p": [1]}\n'
            '{"k": 2, "vectors": [{"alpha": [1, 1, 1], "beta": []}, {"alpha": [], "beta": []}], "p": [1]}\n'
            '{"k": 2, "vectors": [{"alpha": [], "beta": []}, {"alpha": [], "beta": [2]}], "p": [2]}\n'
            '{"k": 2, "vectors": [{"alpha": [], "beta": []}, {"alpha": [2], "beta": []}], "p": [2]}\n'
            '{"k": 2, "vectors": [{"alpha": [], "beta": [2]}, {"alpha": [], "beta": []}], "p": [2]}\n'
            '{"k": 2, "vectors": [{"alpha": [2], "beta": []}, {"alpha": [], "beta": []}], "p": [2]}\n'
        ),
        "20 2-marked symbols of 4\n",
    ),
    "enumerate-marked --k 2 --n 4 --format csv": (
        0,
        (
            "levels,markers,cranks\n"
            "|1 1 1;|,1,-3 0\n"
            "1|1 1;|,1,-1 0\n"
            "1 1|1;|,1,1 0\n"
            "1 1 1|;|,1,3 0\n"
            "|1 1;|1,1,-2 -1\n"
            "1|1;|1,1,0 -1\n"
            "1 1|;|1,1,2 -1\n"
            "|1 1;1|,1,-2 1\n"
            "1|1;1|,1,0 1\n"
            "1 1|;1|,1,2 1\n"
            "|1;|1 1,1,-1 -2\n"
            "1|;|1 1,1,1 -2\n"
            "|1;1 1|,1,-1 2\n"
            "1|;1 1|,1,1 2\n"
            "|;|1 1 1,1,0 -3\n"
            "|;1 1 1|,1,0 3\n"
            "|2;|,2,-1 0\n"
            "2|;|,2,1 0\n"
            "|;|2,2,0 -1\n"
            "|;2|,2,0 1\n"
        ),
        "20 2-marked symbols of 4\n",
    ),
    "enumerate-marked --k 2 --n 4 --format text": (
        0,
        (
            "levels=(((), (1, 1, 1)), ((), ())) markers=(1,) cranks=(-3, 0)\n"
            "levels=(((1,), (1, 1)), ((), ())) markers=(1,) cranks=(-1, 0)\n"
            "levels=(((1, 1), (1,)), ((), ())) markers=(1,) cranks=(1, 0)\n"
            "levels=(((1, 1, 1), ()), ((), ())) markers=(1,) cranks=(3, 0)\n"
            "levels=(((), (1, 1)), ((), (1,))) markers=(1,) cranks=(-2, -1)\n"
            "levels=(((1,), (1,)), ((), (1,))) markers=(1,) cranks=(0, -1)\n"
            "levels=(((1, 1), ()), ((), (1,))) markers=(1,) cranks=(2, -1)\n"
            "levels=(((), (1, 1)), ((1,), ())) markers=(1,) cranks=(-2, 1)\n"
            "levels=(((1,), (1,)), ((1,), ())) markers=(1,) cranks=(0, 1)\n"
            "levels=(((1, 1), ()), ((1,), ())) markers=(1,) cranks=(2, 1)\n"
            "levels=(((), (1,)), ((), (1, 1))) markers=(1,) cranks=(-1, -2)\n"
            "levels=(((1,), ()), ((), (1, 1))) markers=(1,) cranks=(1, -2)\n"
            "levels=(((), (1,)), ((1, 1), ())) markers=(1,) cranks=(-1, 2)\n"
            "levels=(((1,), ()), ((1, 1), ())) markers=(1,) cranks=(1, 2)\n"
            "levels=(((), ()), ((), (1, 1, 1))) markers=(1,) cranks=(0, -3)\n"
            "levels=(((), ()), ((1, 1, 1), ())) markers=(1,) cranks=(0, 3)\n"
            "levels=(((), (2,)), ((), ())) markers=(2,) cranks=(-1, 0)\n"
            "levels=(((2,), ()), ((), ())) markers=(2,) cranks=(1, 0)\n"
            "levels=(((), ()), ((), (2,))) markers=(2,) cranks=(0, -1)\n"
            "levels=(((), ()), ((2,), ())) markers=(2,) cranks=(0, 1)\n"
        ),
        "20 2-marked symbols of 4\n",
    ),
    "verify thm3.1 --k 1 --max-n 4 --format json": (
        0,
        (
            '{"identity": "thm3.1", "k": 1, "n": 2, "lhs": 4, "rhs": 4, "pass": true}\n'
            '{"identity": "thm3.1", "k": 1, "n": 3, "lhs": 9, "rhs": 9, "pass": true}\n'
            '{"identity": "thm3.1", "k": 1, "n": 4, "lhs": 20, "rhs": 20, "pass": true}\n'
        ),
        (
            "verifying thm3.1 ...\n"
            "3/3 checks passed\n"
        ),
    ),
    "verify thm3.1 --k 1 --max-n 4 --format csv": (
        0,
        (
            "identity,k,n,lhs,rhs,pass\n"
            "thm3.1,1,2,4,4,True\n"
            "thm3.1,1,3,9,9,True\n"
            "thm3.1,1,4,20,20,True\n"
        ),
        (
            "verifying thm3.1 ...\n"
            "3/3 checks passed\n"
        ),
    ),
    "verify thm3.1 --k 1 --max-n 4 --format text": (
        0,
        (
            "thm3.1  k=1 n=2  lhs=4 rhs=4  pass\n"
            "thm3.1  k=1 n=3  lhs=9 rhs=9  pass\n"
            "thm3.1  k=1 n=4  lhs=20 rhs=20  pass\n"
        ),
        (
            "verifying thm3.1 ...\n"
            "3/3 checks passed\n"
        ),
    ),
    "verify mod-identity --max-n 3 --format json": (
        0,
        (
            '{"identity": "mod-identity[p=5,r=1,enumerate]", "k": 2, "n": 2, "lhs": 5, "rhs": 5, "pass": true}\n'
            '{"identity": "mod-identity[p=5,r=1,enumerate]", "k": 2, "n": 3, "lhs": 5, "rhs": 5, "pass": true}\n'
            '{"identity": "mod-identity[p=5,r=1,closed]", "k": 2, "n": 2, "lhs": 5, "rhs": 5, "pass": true}\n'
            '{"identity": "mod-identity[p=5,r=1,closed]", "k": 2, "n": 3, "lhs": 5, "rhs": 5, "pass": true}\n'
            '{"identity": "mod-identity[p=5,r=1,enumerate]", "k": 3, "n": 2, "lhs": 5, "rhs": 5, "pass": true}\n'
            '{"identity": "mod-identity[p=5,r=1,enumerate]", "k": 3, "n": 3, "lhs": 5, "rhs": 5, "pass": true}\n'
            '{"identity": "mod-identity[p=5,r=1,closed]", "k": 3, "n": 2, "lhs": 5, "rhs": 5, "pass": true}\n'
            '{"identity": "mod-identity[p=5,r=1,closed]", "k": 3, "n": 3, "lhs": 5, "rhs": 5, "pass": true}\n'
            '{"identity": "mod-identity[p=7,r=1,enumerate]", "k": 2, "n": 2, "lhs": 7, "rhs": 7, "pass": true}\n'
            '{"identity": "mod-identity[p=7,r=1,enumerate]", "k": 2, "n": 3, "lhs": 7, "rhs": 7, "pass": true}\n'
            '{"identity": "mod-identity[p=7,r=1,closed]", "k": 2, "n": 2, "lhs": 7, "rhs": 7, "pass": true}\n'
            '{"identity": "mod-identity[p=7,r=1,closed]", "k": 2, "n": 3, "lhs": 7, "rhs": 7, "pass": true}\n'
        ),
        (
            "verifying mod-identity ...\n"
            "12/12 checks passed\n"
        ),
    ),
    "verify mod-identity --max-n 3 --format csv": (
        0,
        (
            "identity,k,n,lhs,rhs,pass\n"
            '"mod-identity[p=5,r=1,enumerate]",2,2,5,5,True\n'
            '"mod-identity[p=5,r=1,enumerate]",2,3,5,5,True\n'
            '"mod-identity[p=5,r=1,closed]",2,2,5,5,True\n'
            '"mod-identity[p=5,r=1,closed]",2,3,5,5,True\n'
            '"mod-identity[p=5,r=1,enumerate]",3,2,5,5,True\n'
            '"mod-identity[p=5,r=1,enumerate]",3,3,5,5,True\n'
            '"mod-identity[p=5,r=1,closed]",3,2,5,5,True\n'
            '"mod-identity[p=5,r=1,closed]",3,3,5,5,True\n'
            '"mod-identity[p=7,r=1,enumerate]",2,2,7,7,True\n'
            '"mod-identity[p=7,r=1,enumerate]",2,3,7,7,True\n'
            '"mod-identity[p=7,r=1,closed]",2,2,7,7,True\n'
            '"mod-identity[p=7,r=1,closed]",2,3,7,7,True\n'
        ),
        (
            "verifying mod-identity ...\n"
            "12/12 checks passed\n"
        ),
    ),
    "verify mod-identity --max-n 3 --format text": (
        0,
        (
            "mod-identity[p=5,r=1,enumerate]  k=2 n=2  lhs=5 rhs=5  pass\n"
            "mod-identity[p=5,r=1,enumerate]  k=2 n=3  lhs=5 rhs=5  pass\n"
            "mod-identity[p=5,r=1,closed]  k=2 n=2  lhs=5 rhs=5  pass\n"
            "mod-identity[p=5,r=1,closed]  k=2 n=3  lhs=5 rhs=5  pass\n"
            "mod-identity[p=5,r=1,enumerate]  k=3 n=2  lhs=5 rhs=5  pass\n"
            "mod-identity[p=5,r=1,enumerate]  k=3 n=3  lhs=5 rhs=5  pass\n"
            "mod-identity[p=5,r=1,closed]  k=3 n=2  lhs=5 rhs=5  pass\n"
            "mod-identity[p=5,r=1,closed]  k=3 n=3  lhs=5 rhs=5  pass\n"
            "mod-identity[p=7,r=1,enumerate]  k=2 n=2  lhs=7 rhs=7  pass\n"
            "mod-identity[p=7,r=1,enumerate]  k=2 n=3  lhs=7 rhs=7  pass\n"
            "mod-identity[p=7,r=1,closed]  k=2 n=2  lhs=7 rhs=7  pass\n"
            "mod-identity[p=7,r=1,closed]  k=2 n=3  lhs=7 rhs=7  pass\n"
        ),
        (
            "verifying mod-identity ...\n"
            "12/12 checks passed\n"
        ),
    ),
    "scan --p 5 --k 1 --max-a 5 --max-n 30 --format json": (
        0,
        (
            '{"p": 5, "r": 1, "A": 5, "B": 0, "kind": "moment", "k": 1, "n_max": 30, "holds": true, "points": 6}\n'
            '{"p": 5, "r": 1, "A": 5, "B": 4, "kind": "moment", "k": 1, "n_max": 30, "holds": true, "points": 6}\n'
        ),
        "2 witnesses\n",
    ),
    "scan --p 5 --k 1 --max-a 5 --max-n 30 --format csv": (
        0,
        (
            "p,r,A,B,kind,k,n_max,holds,points\n"
            "5,1,5,0,moment,1,30,True,6\n"
            "5,1,5,4,moment,1,30,True,6\n"
        ),
        "2 witnesses\n",
    ),
    "scan --p 5 --k 1 --max-a 5 --max-n 30 --format text": (
        0,
        (
            "moment p=5 r=1 A=5 B=0 k=1 points=6\n"
            "moment p=5 r=1 A=5 B=4 k=1 points=6\n"
        ),
        "2 witnesses\n",
    ),
}
